//! The seeded request generator shared by the TCP run and the traced replay.
//!
//! A stream is a pure function of `(workload, seed, seconds)`; the server
//! receives only the rendered request lines.  Every distinct query pair is
//! parsed once here, keyed by its canonical code so that two pairs of a
//! stream are isomorphic only where the stream means them to be (a
//! hit-serial variant of its base pair), and decided in-process with
//! `registry::decide_ucq_dyn` for the verdict its replies must carry.
//!
//! The row and size mix is stratified rather than sampled: every block of
//! 45 fresh pairs holds each of the 15 Table 1 rows three times, once per
//! shape, so each run sees the same mix.  Decide cost per row is
//! heavy-tailed, and a freely sampled mix moves every end-to-end number
//! with the seed.

use annot_core::registry::{decide_ucq_dyn, SemiringId};
use annot_query::key::ucq_code;
use annot_query::{parser, Schema};
use annot_service::proto::format_decision;
use std::collections::HashSet;
use std::fmt::Write as _;

/// A fixed vocabulary of 32 binary relation names, the table count of a
/// TPC-DS or JOB schema.  A vocabulary that grows with the stream never
/// settles: every parse clones the server's shared schema and every cached
/// query keeps its own copy.
pub const VOCABULARY: [&str; 32] = [
    "title",
    "movie_info",
    "cast_info",
    "company_name",
    "keyword",
    "movie_keyword",
    "aka_name",
    "char_name",
    "role_type",
    "kind_type",
    "info_type",
    "link_type",
    "movie_link",
    "complete_cast",
    "person_info",
    "movie_companies",
    "store_sales",
    "store_returns",
    "catalog_sales",
    "web_sales",
    "inventory",
    "item",
    "customer",
    "customer_address",
    "date_dim",
    "time_dim",
    "store",
    "warehouse",
    "promotion",
    "household",
    "income_band",
    "ship_mode",
];

/// One Table 1 row as the benchmark addresses it.
pub struct Row {
    /// The semiring name sent on the wire.
    pub wire: &'static str,
    /// The row's name in per-row metric names.
    pub metric: &'static str,
    /// A counting or small-model row: its deciders blow up with query
    /// size (`T+` and `T-` take minutes at 5 atoms), so its pairs keep to
    /// at most 3 atoms and width 2.
    pub counting: bool,
}

const fn row(wire: &'static str, metric: &'static str, counting: bool) -> Row {
    Row {
        wire,
        metric,
        counting,
    }
}

/// The 15 rows of Table 1, in registry order.
pub const ROWS: [Row; 15] = [
    row("B", "b", false),
    row("PosBool[X]", "posbool_x", false),
    row("Fuzzy", "fuzzy", false),
    row("Access", "access", false),
    row("Lin[X]", "lin_x", false),
    row("Why[X]", "why_x", false),
    row("Trio[X]", "trio_x", true),
    row("B[X]", "b_x", false),
    row("N[X]", "n_x", true),
    row("N", "n", true),
    row("T+", "t_plus", true),
    row("T-", "t_minus", true),
    row("Viterbi", "viterbi", true),
    row("B_2", "b_2", true),
    row("B_3", "b_3", true),
];

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every timed request is a renamed, reshuffled variant of a warm-up
    /// pair, so the cache answers it.
    HitSerial,
    /// Every timed request is a pair never seen before.
    MissSerial,
    /// `BATCH` frames alternating cache hits and fresh pairs.
    BatchMix,
}

impl Workload {
    /// Parses a workload name as given to `--workload`.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "hit-serial" => Some(Workload::HitSerial),
            "miss-serial" => Some(Workload::MissSerial),
            "batch-mix" => Some(Workload::BatchMix),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HitSerial => "hit-serial",
            Workload::MissSerial => "miss-serial",
            Workload::BatchMix => "batch-mix",
        }
    }
}

/// Pairs decided by every warm-up.
const WARMUP_PAIRS: usize = 300;
/// One hit-serial base pair in this many is a symmetric star pair (5 %).
const STAR_EVERY: usize = 20;
/// Items per `BATCH` frame: their replies overflow the server's 8 KiB
/// write buffer.  Half are fresh pairs, exactly three stratification
/// blocks, so every frame carries the same row and shape mix.
const BATCH_ITEMS: usize = 270;
/// A run sends its stream this many times, each time to a fresh server:
/// every request gets as many tries at an undisturbed round trip, set-up is
/// measured once per round, and the server's memory stays that of one round
/// (an entry costs the default server about 20 KB).
pub const ROUNDS: usize = 20;
/// Timed requests (frames on batch-mix) per second of `--seconds`, over all
/// rounds, sized so that the timed phases together take about that long on
/// a 2-vCPU host.
const HITS_PER_SECOND: usize = 4500;
const MISSES_PER_SECOND: usize = 4200;
const FRAMES_PER_SECOND: usize = 11;

/// An atom: relation (index into [`VOCABULARY`]) and its two variables.
type Atom = (usize, usize, usize);

/// A UCQ as lists of atoms over variables `0..n` per disjunct.
#[derive(Clone, Debug)]
pub struct Query(pub Vec<Vec<Atom>>);

/// One distinct query pair and its expected verdict.
pub struct Pair {
    /// Index into [`ROWS`].
    pub row: usize,
    /// Left query.
    pub q1: Query,
    /// Right query.
    pub q2: Query,
    /// The verdict word a correct reply carries (`contained`, …).
    pub verdict: String,
}

impl Pair {
    /// Whether a reply carries this pair's expected verdict.
    pub fn answered_by(&self, reply: &str) -> bool {
        let mut words = reply.split_whitespace();
        words.next() == Some("OK") && words.next() == Some(self.verdict.as_str())
    }
}

/// One `DECIDE` request.
pub struct Request {
    /// The request line, without its newline.
    pub line: String,
    /// Index of the pair it asks about.
    pub pair: usize,
    /// Whether the cache should answer it.
    pub hit: bool,
}

/// A workload's complete request stream.
pub struct Stream {
    /// Every distinct pair, in first-use order.
    pub pairs: Vec<Pair>,
    /// Requests of the warm-up, each a cache miss.
    pub warmup: Vec<Request>,
    /// The timed phase: one frame per round trip (a single request on the
    /// serial workloads, a `BATCH` on batch-mix).
    pub frames: Vec<Vec<Request>>,
}

impl Stream {
    /// The timed requests in send order.
    pub fn timed(&self) -> impl Iterator<Item = &Request> {
        self.frames.iter().flatten()
    }
}

/// Builds the stream of `workload` for `seed`: one round's warm-up and
/// timed phase, sized so that [`ROUNDS`] timed phases take about `seconds`.
pub fn stream(workload: Workload, seed: u64, seconds: u64) -> Stream {
    let mut g = Gen::new(seed);
    let per_round = |rate: usize| (rate * seconds.max(1) as usize).div_ceil(ROUNDS);
    let mut warmup = Vec::with_capacity(WARMUP_PAIRS);
    for j in 0..WARMUP_PAIRS {
        let pair = if workload == Workload::HitSerial && j % STAR_EVERY == STAR_EVERY - 1 {
            // Alternate 6 and 5 leaves on the right, so that every seed
            // has the same share of the costliest keys.
            g.star_pair(5 + (j / STAR_EVERY) % 2)
        } else {
            g.fresh_pair()
        };
        g.base.push(pair);
        warmup.push(g.base_request(pair));
    }
    let frames = match workload {
        Workload::HitSerial => {
            // A whole number of passes over the base pairs, so the timed
            // mix is exactly the warm-up mix.
            let passes = per_round(HITS_PER_SECOND).div_ceil(WARMUP_PAIRS);
            let mut frames = Vec::with_capacity(passes * WARMUP_PAIRS);
            for _ in 0..passes {
                for pair in g.base_order() {
                    frames.push(vec![g.variant(pair)]);
                }
            }
            frames
        }
        Workload::MissSerial => (0..per_round(MISSES_PER_SECOND))
            .map(|_| {
                let pair = g.fresh_pair();
                vec![g.base_request(pair)]
            })
            .collect(),
        Workload::BatchMix => {
            let mut order = Vec::new();
            (0..per_round(FRAMES_PER_SECOND))
                .map(|_| {
                    g.block.clear();
                    (0..BATCH_ITEMS)
                        .map(|i| {
                            if i % 2 == 0 {
                                if order.is_empty() {
                                    order = g.base_order();
                                }
                                let pair = order.pop().expect("refilled above");
                                g.variant(pair)
                            } else {
                                let pair = g.fresh_pair();
                                g.base_request(pair)
                            }
                        })
                        .collect()
                })
                .collect()
        }
    };
    Stream {
        pairs: g.pairs,
        warmup,
        frames,
    }
}

#[derive(Clone, Copy)]
enum Shape {
    Chain,
    Star,
    Random,
}

/// SplitMix64: small, seedable, and the same on every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

struct Gen {
    rng: Rng,
    schema: Schema,
    /// Canonical codes of every pair so far, with its row.
    seen: HashSet<(usize, Vec<u64>, Vec<u64>)>,
    pairs: Vec<Pair>,
    /// Warm-up pairs, the base set of hits.
    base: Vec<usize>,
    /// Remaining `(row, shape)` cells of the current stratification block.
    block: Vec<(usize, Shape)>,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: Rng(seed),
            schema: Schema::with_relations(VOCABULARY.iter().map(|&name| (name, 2))),
            seen: HashSet::new(),
            pairs: Vec::new(),
            base: Vec::new(),
            block: Vec::new(),
        }
    }

    /// The base pairs in a fresh random order.
    fn base_order(&mut self) -> Vec<usize> {
        let mut order = self.base.clone();
        self.rng.shuffle(&mut order);
        order
    }

    /// A pair of the stratified mix, non-isomorphic to every earlier pair.
    fn fresh_pair(&mut self) -> usize {
        if self.block.is_empty() {
            for row in 0..ROWS.len() {
                for shape in [Shape::Chain, Shape::Star, Shape::Random] {
                    self.block.push((row, shape));
                }
            }
            self.rng.shuffle(&mut self.block);
        }
        let (row, shape) = self.block.pop().expect("refilled above");
        loop {
            // Each pair draws on at most 3 relation names, so self-joins
            // and symmetric shapes occur.
            let mut rels: Vec<usize> = (0..VOCABULARY.len()).collect();
            self.rng.shuffle(&mut rels);
            rels.truncate(self.rng.between(1, 3));
            // On a counting row, a 3-atom disjunct over a single relation
            // name next to a width-2 side takes 30-110 ms a decide: 4 % of
            // those pairs took half of all decide time and moved every
            // timing with the seed.  Such disjuncts keep to 2 atoms.
            let counting = ROWS[row].counting;
            let (max_atoms, max_width) = match (counting, rels.len()) {
                (false, _) => (5, 3),
                (true, 1) => (2, 2),
                (true, _) => (3, 2),
            };
            let w1 = self.rng.between(1, max_width);
            let q1: Vec<Vec<Atom>> = (0..w1)
                .map(|_| {
                    let atoms = self.rng.between(2, max_atoms);
                    self.cq(&rels, shape, atoms)
                })
                .collect();
            // Half the right-hand sides are built from sub-queries of the
            // left, so both verdicts occur on every row.
            let derived = self.rng.below(2) == 0;
            let q2 = (0..self.rng.between(1, max_width))
                .map(|_| {
                    if derived {
                        let source = q1[self.rng.below(w1)].clone();
                        self.sub_query(source)
                    } else {
                        let atoms = self.rng.between(2, max_atoms);
                        self.cq(&rels, shape, atoms)
                    }
                })
                .collect::<Vec<_>>();
            let one_name_triple =
                |cq: &Vec<Atom>| cq.len() > 2 && cq.iter().all(|atom| atom.0 == cq[0].0);
            if counting && q1.iter().chain(&q2).any(one_name_triple) {
                continue;
            }
            if let Some(pair) = self.admit(row, Query(q1), Query(q2)) {
                return pair;
            }
        }
    }

    /// A pair of stars over one relation, 6 leaves against `leaves`, on a
    /// homomorphism-family row: the canonical key's labeling search, not
    /// the host, sets hit-serial's tail.
    fn star_pair(&mut self, leaves: usize) -> usize {
        let hom_rows: Vec<usize> = (0..ROWS.len()).filter(|&r| !ROWS[r].counting).collect();
        loop {
            let row = hom_rows[self.rng.below(hom_rows.len())];
            let rel = self.rng.below(VOCABULARY.len());
            let star = |leaves: usize| (1..=leaves).map(|leaf| (rel, 0, leaf)).collect();
            if let Some(pair) = self.admit(row, Query(vec![star(6)]), Query(vec![star(leaves)])) {
                return pair;
            }
        }
    }

    fn cq(&mut self, rels: &[usize], shape: Shape, atoms: usize) -> Vec<Atom> {
        let body = (0..atoms)
            .map(|i| {
                let rel = rels[self.rng.below(rels.len())];
                let (a, b) = match shape {
                    Shape::Chain => (i, i + 1),
                    Shape::Star => (0, i + 1),
                    Shape::Random => (self.rng.below(atoms), self.rng.below(atoms)),
                };
                (rel, a, b)
            })
            .collect();
        compact(body)
    }

    /// At least two atoms of `cq`, so the identity maps it into `cq`.
    fn sub_query(&mut self, mut cq: Vec<Atom>) -> Vec<Atom> {
        let keep = self.rng.between(2.min(cq.len()), cq.len());
        self.rng.shuffle(&mut cq);
        cq.truncate(keep);
        compact(cq)
    }

    /// Records a pair unless an isomorphic pair on the same row exists;
    /// decides it for the expected verdict.
    fn admit(&mut self, row: usize, q1: Query, q2: Query) -> Option<usize> {
        let u1 = parser::parse_ucq(&mut self.schema, &render(&q1, &mut base_names))
            .expect("generated queries parse");
        let u2 = parser::parse_ucq(&mut self.schema, &render(&q2, &mut base_names))
            .expect("generated queries parse");
        if !self.seen.insert((row, ucq_code(&u1), ucq_code(&u2))) {
            return None;
        }
        let id = SemiringId::from_name(ROWS[row].wire).expect("every row is registered");
        let reply = format_decision(&decide_ucq_dyn(id, &u1, &u2), false);
        let verdict = reply.split_whitespace().nth(1).expect("OK <verdict> …");
        self.pairs.push(Pair {
            row,
            q1,
            q2,
            verdict: verdict.to_string(),
        });
        Some(self.pairs.len() - 1)
    }

    /// The pair as first sent: variables `x0, x1, …` in atom order.
    fn base_request(&self, pair: usize) -> Request {
        let p = &self.pairs[pair];
        let line = decide_line(
            p.row,
            &render(&p.q1, &mut base_names),
            &render(&p.q2, &mut base_names),
        );
        Request {
            line,
            pair,
            hit: false,
        }
    }

    /// An isomorphic variant of a pair sent before: variables renamed,
    /// atoms and disjuncts shuffled.
    fn variant(&mut self, pair: usize) -> Request {
        let (row, q1, q2) = {
            let p = &self.pairs[pair];
            (p.row, p.q1.clone(), p.q2.clone())
        };
        let left = self.shuffled(q1);
        let right = self.shuffled(q2);
        Request {
            line: decide_line(row, &left, &right),
            pair,
            hit: true,
        }
    }

    fn shuffled(&mut self, mut q: Query) -> String {
        for cq in &mut q.0 {
            self.rng.shuffle(cq);
        }
        self.rng.shuffle(&mut q.0);
        let rng = &mut self.rng;
        render(&q, &mut |vars| {
            let mut names: Vec<String> = Vec::with_capacity(vars);
            while names.len() < vars {
                let name = format!("v{}", rng.below(1000));
                if !names.contains(&name) {
                    names.push(name);
                }
            }
            names
        })
    }
}

fn base_names(vars: usize) -> Vec<String> {
    (0..vars).map(|v| format!("x{v}")).collect()
}

fn decide_line(row: usize, q1: &str, q2: &str) -> String {
    format!("DECIDE {} {q1} <= {q2}", ROWS[row].wire)
}

/// Renumbers variables `0..n` in order of first occurrence.
fn compact(atoms: Vec<Atom>) -> Vec<Atom> {
    let mut seen: Vec<usize> = Vec::new();
    let mut index = |v: usize| match seen.iter().position(|&s| s == v) {
        Some(i) => i,
        None => {
            seen.push(v);
            seen.len() - 1
        }
    };
    atoms
        .into_iter()
        .map(|(rel, a, b)| {
            let a = index(a);
            (rel, a, index(b))
        })
        .collect()
}

/// Number of variables of a compacted CQ.
fn num_vars(cq: &[Atom]) -> usize {
    cq.iter().map(|&(_, a, b)| a.max(b) + 1).max().unwrap_or(0)
}

/// Renders a query in the parser's syntax, naming each disjunct's
/// variables with `names(count)`.
fn render(q: &Query, names: &mut impl FnMut(usize) -> Vec<String>) -> String {
    let mut out = String::new();
    for (i, cq) in q.0.iter().enumerate() {
        if i > 0 {
            out.push_str(" ; ");
        }
        let names = names(num_vars(cq));
        out.push_str("Q() :- ");
        for (j, &(rel, a, b)) in cq.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            write!(out, "{}({}, {})", VOCABULARY[rel], names[a], names[b])
                .expect("writing to a String");
        }
    }
    out
}

/// Whether some disjunct has at least 5 interchangeable leaves: atoms of
/// one relation that hang off one variable in the same position and end
/// in variables used nowhere else.  The canonical key's labeling search
/// visits at least 5! orderings on such a query.
pub fn high_symmetry(q: &Query) -> bool {
    q.0.iter().any(|cq| {
        let mut uses = vec![0usize; num_vars(cq)];
        for &(_, a, b) in cq {
            uses[a] += 1;
            uses[b] += 1;
        }
        let mut groups: Vec<(usize, usize, bool)> = Vec::new();
        for &(rel, a, b) in cq {
            if a != b && uses[b] == 1 {
                groups.push((rel, a, true));
            } else if a != b && uses[a] == 1 {
                groups.push((rel, b, false));
            }
        }
        groups.sort_unstable();
        groups.chunk_by(|x, y| x == y).any(|g| g.len() >= 5)
    })
}
