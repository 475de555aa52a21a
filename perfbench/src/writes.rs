//! Write batches: the data slices each workload deletes and re-inserts, and
//! the schedule that times them.

use crate::stats::Rng;
use rdfref::core::UpdateBatch;
use rdfref::model::{vocab, Graph, Triple};
use std::time::{Duration, Instant};

/// Triples per slice; a rolling batch re-inserts one slice and deletes
/// another, so it writes twice this many.
pub const SLICE_LEN: usize = 4;

/// Every slice of data triples (schema triples are left alone: deleting
/// one would resaturate and bump the schema epoch, a different workload),
/// in an order fixed by `SLICE_ORDER_SEED`, not by the run's seed. A run
/// writes a prefix of this list, so every run deletes the same triples,
/// and the costliest deletions, which set the write tail, are the same;
/// the run's seed only orders them.
pub fn slices(graph: &Graph) -> Vec<Vec<Triple>> {
    let mut data: Vec<Triple> = graph
        .iter_decoded()
        .filter(|t| {
            !t.property
                .as_iri()
                .is_some_and(vocab::is_rdfs_constraint_property)
        })
        .collect();
    // Sort before shuffling: the graph's iteration order is not part of the
    // contract.
    data.sort();
    Rng::new(SLICE_ORDER_SEED).shuffle(&mut data);
    data.chunks_exact(SLICE_LEN)
        .map(<[Triple]>::to_vec)
        .collect()
}

const SLICE_ORDER_SEED: u64 = 0x5eed_5eed;

/// The first `count` slices, in the order `rng` draws.
pub fn seeded_prefix(slices: &[Vec<Triple>], count: usize, rng: &mut Rng) -> Vec<Vec<Triple>> {
    let mut out = slices[..count.min(slices.len())].to_vec();
    rng.shuffle(&mut out);
    out
}

/// Batch `i` of a rolling sequence that starts at slice `first`: it
/// re-inserts slice `first + i`, which the batch before deleted, and deletes
/// slice `first + i + 1`. Every batch so has the same shape (4 insertions,
/// 4 deletions), where alternating pure deletions and pure insertions would
/// give two latency modes with the median between them. The sequence is
/// primed by deleting slice `first` and closed by re-inserting the last
/// slice deleted, after which the store is as it began.
pub fn rolling(slices: &[Vec<Triple>], first: usize, i: usize) -> UpdateBatch {
    let slice = |k: usize| slices[k % slices.len()].clone();
    slice(first + i + 1).into_iter().fold(
        UpdateBatch::inserting(slice(first + i)),
        UpdateBatch::delete,
    )
}

/// One timed operation of a [`run_schedule`].
#[derive(Debug, Clone, Copy)]
pub struct Timed<R> {
    /// Due time → completion.
    pub latency: Duration,
    /// Due time → actually sent (how late the generator ran).
    pub late: Duration,
    /// When it completed.
    pub done: Instant,
    pub result: R,
}

/// Run operations `0, 1, …` while `more(operations done)` holds. With
/// `period`, operation `i` is due at `start + i × period` whatever happened
/// before (an open loop), and its latency counts from that due time, so a
/// stall is charged to every operation it delays. Without, each is due when
/// the previous one ends (a closed loop).
pub fn run_schedule<R>(
    period: Option<Duration>,
    mut more: impl FnMut(usize) -> bool,
    mut op: impl FnMut(usize) -> R,
) -> Vec<Timed<R>> {
    let start = Instant::now();
    (0..)
        .take_while(|&i| more(i))
        .map(|i| {
            let due = match period {
                Some(p) => start + p.mul_f64(i as f64),
                None => Instant::now(),
            };
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let result = op(i);
            let done = Instant::now();
            Timed {
                done,
                latency: done - due,
                late: sent.saturating_duration_since(due),
                result,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfref::model::Term;

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Operation 0 stalls for 60 ms; operations 1–3 were due 10, 20 and
        // 30 ms in and each take ~0 ms. Timed from when they were sent they
        // would look instant; timed from their due time they carry the
        // stall.
        let period = Duration::from_millis(10);
        let out = run_schedule(
            Some(period),
            |i| i < 4,
            |i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(60));
                }
            },
        );
        for (i, t) in out.iter().enumerate().skip(1) {
            let stalled = Duration::from_millis(60) - period * i as u32;
            assert!(t.late >= stalled, "op {i} late {:?}", t.late);
            assert!(t.latency >= t.late);
        }
        // A closed loop has no due time to be late for.
        let closed = run_schedule(
            None,
            |i| i < 3,
            |_| std::thread::sleep(Duration::from_millis(5)),
        );
        assert!(closed.iter().all(|t| t.late < Duration::from_millis(5)));
        assert!(closed.iter().all(|t| t.latency >= Duration::from_millis(5)));
    }

    #[test]
    fn rolling_batches_have_one_shape_and_restore_the_store() {
        let slices: Vec<Vec<Triple>> = (0..5)
            .map(|k| {
                (0..SLICE_LEN)
                    .map(|j| {
                        let iri = |s: String| Term::iri(format!("http://example.org/{s}"));
                        Triple::new_unchecked(
                            iri(format!("s{k}")),
                            iri("p".into()),
                            iri(format!("o{j}")),
                        )
                    })
                    .collect()
            })
            .collect();
        let mut absent = slices[3].clone();
        for i in 0..7 {
            let b = rolling(&slices, 3, i);
            assert_eq!(
                (b.inserts().len(), b.deletes().len()),
                (SLICE_LEN, SLICE_LEN)
            );
            // It re-inserts exactly what the batch before deleted.
            assert_eq!(b.inserts(), &absent[..]);
            assert_ne!(b.inserts(), b.deletes());
            absent = b.deletes().to_vec();
        }
        // The slice the closing insertion restores wraps around the list.
        assert_eq!(absent, slices[(3 + 7) % 5]);
    }

    #[test]
    fn slices_are_one_set_disjoint_and_schema_free() {
        let g = rdfref::datagen::lubm::generate(&rdfref::datagen::lubm::LubmConfig::scale(1)).graph;
        let all = slices(&g);
        assert_eq!(all, slices(&g));
        let a = seeded_prefix(&all, 20, &mut Rng::new(5));
        assert_eq!(a, seeded_prefix(&all, 20, &mut Rng::new(5)));
        let b = seeded_prefix(&all, 20, &mut Rng::new(6));
        assert_ne!(a, b);
        // Another seed, another order of the same slices.
        let (mut sa, mut sb) = (a.clone(), b);
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb);
        assert_eq!(a.len(), 20);
        let mut all: Vec<&Triple> = a.iter().flatten().collect();
        assert!(all
            .iter()
            .all(|t| t.property.as_iri() != Some(vocab::RDFS_SUBCLASSOF)));
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 20 * SLICE_LEN);
    }
}
