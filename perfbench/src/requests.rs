//! The request mixes: SPARQL templates, their constants, and the seeded
//! passes each workload replays.
//!
//! Queries travel as SPARQL text and are parsed against the engine's own
//! dictionary. The generator's `lubm_mix` holds `TermId`s that are only
//! valid in the generator's graph; against a graph re-parsed from
//! N-Triples they silently name other terms.

use crate::stats::Rng;
use rdfref::core::Strategy;
use rdfref::datagen::lubm::{LubmConfig, LubmDataset, UB};

/// The strategies of the paper's E2 comparison, in report order.
pub const STRATEGIES: [&str; 4] = ["Sat", "Ref/UCQ", "Ref/SCQ", "Ref/GCov"];

pub fn strategy(index: usize) -> Strategy {
    match index {
        0 => Strategy::Saturation,
        1 => Strategy::RefUcq,
        2 => Strategy::RefScq,
        _ => Strategy::RefGCov,
    }
}

/// What a template's single constant ranges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Param {
    None,
    Course,
    Department,
    Professor,
    University,
}

/// The twelve `lubm_mix` templates (Q01–Q12), same atoms in the same order;
/// `$` marks the constant.
pub const TEMPLATES: [(&str, Param, &str); 12] = [
    ("Q01", Param::Course, "SELECT ?x WHERE { ?x a ub:GraduateStudent . ?x ub:takesCourse $ }"),
    ("Q02", Param::Department, "SELECT ?x WHERE { ?x a ub:Person . ?x ub:memberOf $ }"),
    ("Q03", Param::Professor, "SELECT ?x WHERE { ?x a ub:Publication . ?x ub:publicationAuthor $ }"),
    ("Q04", Param::Department, "SELECT ?x ?n WHERE { ?x a ub:Professor . ?x ub:worksFor $ . ?x ub:name ?n }"),
    ("Q05", Param::None, "SELECT ?x ?z WHERE { ?x a ub:Person . ?x ub:memberOf ?z }"),
    ("Q06", Param::None, "SELECT ?x WHERE { ?x a ub:Student }"),
    ("Q07", Param::Professor, "SELECT ?x ?y WHERE { ?x a ub:Student . ?x ub:takesCourse ?y . $ ub:teacherOf ?y }"),
    ("Q08", Param::University, "SELECT ?x ?e WHERE { ?x a ub:Student . ?x ub:memberOf ?y . ?y ub:subOrganizationOf $ . ?x ub:emailAddress ?e }"),
    ("Q09", Param::None, "SELECT ?x ?y ?z WHERE { ?x a ub:Student . ?y a ub:Faculty . ?z a ub:Course . ?x ub:advisor ?y . ?y ub:teacherOf ?z . ?x ub:takesCourse ?z }"),
    ("Q10", Param::Department, "SELECT ?x ?u WHERE { ?x a ?u . ?x ub:memberOf $ }"),
    ("Q11", Param::None, "SELECT ?c WHERE { ?c rdfs:subClassOf ub:Person }"),
    ("Q12", Param::Professor, "SELECT ?p ?o WHERE { $ ?p ?o }"),
];

/// The selective templates `cold_mix` draws constants for.
pub const COLD_TEMPLATES: [usize; 8] = [0, 1, 2, 3, 6, 7, 9, 11];

/// One read request: template, strategy, and the index of its constant in
/// the template's [`Domains`] list (0 is `lubm_mix`'s constant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Request {
    pub template: usize,
    pub strategy: usize,
    pub constant: usize,
}

/// Every constant a template can take on a dataset of this configuration,
/// as IRIs; index 0 is the constant `lubm_mix` uses.
pub struct Domains {
    courses: Vec<String>,
    departments: Vec<String>,
    professors: Vec<String>,
    universities: Vec<String>,
}

impl Domains {
    pub fn new(config: &LubmConfig) -> Domains {
        let depts: Vec<(usize, usize)> = (0..config.universities)
            .flat_map(|u| (0..config.departments_per_university).map(move |d| (u, d)))
            .collect();
        let ranks = [
            ("FullProfessor", config.full_professors),
            ("AssociateProfessor", config.associate_professors),
            ("AssistantProfessor", config.assistant_professors),
        ];
        Domains {
            courses: depts
                .iter()
                .flat_map(|&(u, d)| {
                    (0..config.graduate_courses)
                        .map(move |i| LubmDataset::graduate_course_iri(u, d, i))
                })
                .collect(),
            departments: depts
                .iter()
                .map(|&(u, d)| LubmDataset::department_iri(u, d))
                .collect(),
            professors: depts
                .iter()
                .flat_map(|&(u, d)| {
                    ranks.iter().flat_map(move |&(rank, n)| {
                        (0..n).map(move |i| {
                            format!("{}/{rank}{i}", LubmDataset::department_iri(u, d))
                        })
                    })
                })
                .collect(),
            universities: (0..config.universities)
                .map(LubmDataset::university_iri)
                .collect(),
        }
    }

    fn list(&self, param: Param) -> &[String] {
        match param {
            Param::None => &[],
            Param::Course => &self.courses,
            Param::Department => &self.departments,
            Param::Professor => &self.professors,
            Param::University => &self.universities,
        }
    }

    /// Number of constants template `t` can take (1 for a constant-free one).
    pub fn size(&self, template: usize) -> usize {
        self.list(TEMPLATES[template].1).len().max(1)
    }

    /// The SPARQL text of a request.
    pub fn sparql(&self, req: &Request) -> String {
        let (_, param, body) = TEMPLATES[req.template];
        let body = match self.list(param).get(req.constant) {
            Some(iri) => body.replace('$', &format!("<{iri}>")),
            None => body.to_string(),
        };
        format!("PREFIX ub: <{UB}> PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> {body}")
    }
}

/// `hot_mix` pass: every template × strategy once, `lubm_mix` constants,
/// in seeded order.
pub fn hot_pass(rng: &mut Rng) -> Vec<Request> {
    let mut pass: Vec<Request> = (0..TEMPLATES.len())
        .flat_map(|template| {
            (0..STRATEGIES.len()).map(move |strategy| Request {
                template,
                strategy,
                constant: 0,
            })
        })
        .collect();
    rng.shuffle(&mut pass);
    pass
}

/// Requests per pass for a `cold_mix` cell of each strategy. Ref/UCQ and
/// Ref/GCov are the strategies with costly planning; Sat (no planning) is
/// the control; Ref/SCQ is kept small because its evaluation of selective
/// templates (up to ~30 ms for Q10) would otherwise dominate the run.
const COLD_PER_PASS: [usize; 4] = [8, 32, 2, 32];

/// A plan key may recur at most once in this many passes, so that with a
/// pass of ~550 requests a key's reuse distance is several times the plan
/// cache's 1024 entries and hits stay rare for every template.
const COLD_REUSE_PASSES: usize = 8;

/// One `cold_mix` cell: its requests per pass and a cursor through a
/// seeded permutation of the template's constants.
struct ColdCell {
    cell: Request,
    per_pass: usize,
    perm: Vec<usize>,
    cursor: usize,
}

/// `cold_mix` state. Constants are spread over every university,
/// department, professor and course, and a cell repeats none until it has
/// used them all.
pub struct ColdMix {
    cells: Vec<ColdCell>,
}

impl ColdMix {
    pub fn new(domains: &Domains) -> ColdMix {
        let mut cells = Vec::new();
        for &template in &COLD_TEMPLATES {
            let size = domains.size(template);
            for (strategy, &base) in COLD_PER_PASS.iter().enumerate() {
                cells.push(ColdCell {
                    cell: Request {
                        template,
                        strategy,
                        constant: 0,
                    },
                    per_pass: base.min(size / COLD_REUSE_PASSES).max(1),
                    perm: (0..size).collect(),
                    // Exhausted: the first pass shuffles.
                    cursor: size,
                });
            }
        }
        ColdMix { cells }
    }

    /// The next pass: exact per-cell counts, constants continuing each
    /// cell's permutation, in seeded order.
    pub fn pass(&mut self, rng: &mut Rng) -> Vec<Request> {
        let mut pass = Vec::new();
        for c in &mut self.cells {
            for _ in 0..c.per_pass {
                if c.cursor == c.perm.len() {
                    rng.shuffle(&mut c.perm);
                    c.cursor = 0;
                }
                pass.push(Request {
                    constant: c.perm[c.cursor],
                    ..c.cell
                });
                c.cursor += 1;
            }
        }
        rng.shuffle(&mut pass);
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn cell_counts(reqs: &[Request]) -> BTreeMap<(usize, usize), usize> {
        let mut m = BTreeMap::new();
        for r in reqs {
            *m.entry((r.template, r.strategy)).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn hot_passes_repeat_per_seed_with_equal_cell_counts() {
        let (mut a, mut b) = (Rng::new(3), Rng::new(3));
        let pa: Vec<Vec<Request>> = (0..5).map(|_| hot_pass(&mut a)).collect();
        let pb: Vec<Vec<Request>> = (0..5).map(|_| hot_pass(&mut b)).collect();
        assert_eq!(pa, pb);
        assert_ne!(pa[0], hot_pass(&mut Rng::new(4)));
        let counts = cell_counts(&pa.concat());
        assert_eq!(counts.len(), 48);
        assert!(counts.values().all(|&n| n == 5));
    }

    #[test]
    fn cold_passes_repeat_per_seed_with_exact_cell_counts() {
        let domains = Domains::new(&LubmConfig::scale(70));
        let run = |seed| {
            let mut mix = ColdMix::new(&domains);
            let mut rng = Rng::new(seed);
            (0..12).map(|_| mix.pass(&mut rng)).collect::<Vec<_>>()
        };
        let (a, b) = (run(11), run(11));
        assert_eq!(a, b);
        assert_ne!(a, run(12));
        // Every pass has the same per-cell counts, whatever the seed.
        let first = cell_counts(&a[0]);
        assert_eq!(first.len(), COLD_TEMPLATES.len() * STRATEGIES.len());
        for pass in a.iter().chain(&run(12)) {
            assert_eq!(cell_counts(pass), first);
        }
        // Q08 has 70 universities: capped so a key recurs at most once
        // every COLD_REUSE_PASSES passes.
        assert_eq!(first[&(7, 1)], 70 / COLD_REUSE_PASSES);
        assert_eq!(first[&(0, 1)], 32);
        // A cell never repeats a constant before exhausting its domain.
        let q08_ucq: Vec<usize> = a[..COLD_REUSE_PASSES]
            .concat()
            .iter()
            .filter(|r| r.template == 7 && r.strategy == 1)
            .map(|r| r.constant)
            .collect();
        let mut distinct = q08_ucq.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), q08_ucq.len());
    }

    #[test]
    fn default_constants_are_the_lubm_mix_ones() {
        let domains = Domains::new(&LubmConfig::scale(2));
        let q = |template| {
            domains.sparql(&Request {
                template,
                strategy: 0,
                constant: 0,
            })
        };
        assert!(q(0).contains(&LubmDataset::graduate_course_iri(0, 0, 0)));
        assert!(q(1).contains(&LubmDataset::department_iri(0, 0)));
        assert!(q(2).contains(&LubmDataset::full_professor_iri(0, 0, 0)));
        assert!(q(7).contains(&LubmDataset::university_iri(0)));
        assert!(!q(4).contains('$'));
    }
}
