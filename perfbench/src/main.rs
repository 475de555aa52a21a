//! rdfref benchmark: `perfbench --workload <hot_mix|cold_mix|churn> --seed <n>
//! --seconds <s> --trace <0|1>`.
//!
//! Prints, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics untraced (`--trace 0`), or
//! the per-layer metrics from a traced run (`--trace 1`), which also prints
//! the layer table of `README.md` with the measured values. Normally run
//! through `run.py`, which builds this package first.

mod alloc;
mod calib;
mod layers;
mod requests;
mod stats;
mod workload;
mod writes;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::Workload::parse(&value).ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.max(1)),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match workload::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        layers::print_table(&out.metrics);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
