//! Property-based tests (proptest) over the core invariants of the workspace:
//! config-space roundtrips, noise monotonicity, plan-estimate sanity, simulator
//! determinism, signature stability, and the vendored JSON codec's round trip
//! and limits (typed values encode to the same text the value tree renders).

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use proptest::prelude::*;

use embedding::WorkloadEmbedder;
use optimizers::space::ConfigSpace;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use serde::text::{parse, render_compact};
use serde::{Deserialize, Serialize, Value};
use sparksim::config::SparkConf;
use sparksim::noise::NoiseSpec;
use sparksim::plan::PlanNode;
use sparksim::simulator::Simulator;
use workloads::generator::{random_plan, PlanGenConfig};

proptest! {
    #[test]
    fn config_space_normalize_roundtrips(x0 in 0.0..1.0f64, x1 in 0.0..1.0f64, x2 in 0.0..1.0f64) {
        let space = ConfigSpace::query_level();
        let raw = space.denormalize(&[x0, x1, x2]);
        let back = space.normalize(&raw);
        for (a, b) in [x0, x1, x2].iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn config_space_points_always_produce_valid_confs(
        x0 in -0.5..1.5f64, x1 in -0.5..1.5f64, x2 in -0.5..1.5f64,
    ) {
        // Even out-of-cube normalized coordinates must clamp into a valid SparkConf.
        let space = ConfigSpace::query_level();
        let raw = space.denormalize(&[x0, x1, x2]);
        let conf = space.to_conf(&raw);
        prop_assert!(conf.validate().is_ok());
    }

    #[test]
    fn noise_never_speeds_runs_up(g0 in 1.0..1e6f64, fl in 0.0..2.0f64, sl in 0.0..2.0f64, seed: u64) {
        let spec = NoiseSpec { fluctuation: fl, spike: sl };
        let mut rng = StdRng::seed_from_u64(seed);
        let g = spec.apply(g0, &mut rng);
        prop_assert!(g >= g0);
        prop_assert!(g.is_finite());
    }

    #[test]
    fn generated_plans_have_sane_estimates(seed in 0u64..500) {
        let plan = random_plan(&PlanGenConfig::default(), seed);
        prop_assert!(plan.est_rows >= 0.0);
        prop_assert!(plan.est_bytes >= 0.0);
        prop_assert!(plan.leaf_input_rows() > 0.0);
        prop_assert!(plan.node_count() >= 2);
    }

    #[test]
    fn simulator_is_deterministic_per_seed(plan_seed in 0u64..200, noise_seed: u64) {
        let plan = random_plan(&PlanGenConfig::default(), plan_seed);
        let sim = Simulator::default_pool(NoiseSpec::high());
        let conf = SparkConf::default();
        let a = sim.execute(&plan, &conf, noise_seed);
        let b = sim.execute(&plan, &conf, noise_seed);
        prop_assert_eq!(a.metrics.elapsed_ms, b.metrics.elapsed_ms);
        prop_assert!(a.metrics.true_ms > 0.0 && a.metrics.true_ms.is_finite());
        prop_assert!(a.metrics.elapsed_ms >= a.metrics.true_ms);
    }

    #[test]
    fn signatures_survive_data_scaling(seed in 0u64..200, factor in 0.1..100.0f64) {
        let plan = random_plan(&PlanGenConfig::default(), seed);
        let sig = embedding::query_signature(&plan);
        prop_assert_eq!(sig, embedding::query_signature(&plan.scaled(factor)));
    }

    #[test]
    fn embeddings_have_stable_dimension(seed in 0u64..200) {
        let plan = random_plan(&PlanGenConfig::default(), seed);
        for e in [WorkloadEmbedder::plain(), WorkloadEmbedder::virtual_ops()] {
            let v = e.embed(&plan);
            prop_assert_eq!(v.len(), e.dim());
            prop_assert!(v.iter().all(|x| x.is_finite()));
            // Counts block sums to node count.
            let total: f64 = v[2..].iter().sum();
            prop_assert_eq!(total, plan.node_count() as f64);
        }
    }

    #[test]
    fn scan_partitioning_respects_max_partition_bytes(
        rows in 1e3..1e9f64, mpb_mib in 1.0..2048.0f64,
    ) {
        let plan = PlanNode::scan("t", rows, 100.0);
        let mut conf = SparkConf::default();
        conf.max_partition_bytes = mpb_mib * 1024.0 * 1024.0;
        let phys = sparksim::physical::plan_physical(&plan, &conf);
        let expected = ((rows * 100.0) / conf.max_partition_bytes).ceil().max(1.0) as usize;
        prop_assert_eq!(phys.stages[0].tasks, expected.min(100_000));
    }

    #[test]
    fn more_noise_does_not_reduce_expected_time(g0 in 10.0..1e4f64, seed in 0u64..100) {
        // Average of 200 draws under high noise must exceed the average under none.
        let mut rng = StdRng::seed_from_u64(seed);
        let hi: f64 = (0..200).map(|_| NoiseSpec::high().apply(g0, &mut rng)).sum::<f64>() / 200.0;
        prop_assert!(hi > g0);
    }

    #[test]
    fn history_window_is_suffix(n in 0usize..50, w in 0usize..60) {
        let mut h = optimizers::tuner::History::new();
        for i in 0..n {
            h.push(vec![i as f64], 1.0, i as f64);
        }
        let win = h.window(w);
        prop_assert_eq!(win.len(), w.min(n));
        if let (Some(first), true) = (win.first(), n > 0) {
            prop_assert_eq!(first.elapsed_ms, (n - win.len()) as f64);
        }
    }

    #[test]
    fn json_strings_round_trip_through_render_and_parse(
        picks in prop::collection::vec((0u8..4, 0u32..0x11_0000), 0..48),
    ) {
        // Any scalar, weighted towards the ones the renderer escapes.
        const SPECIAL: [char; 10] =
            ['"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}'];
        let text: String = picks
            .iter()
            .filter_map(|&(kind, code)| match kind {
                0 => Some(SPECIAL[code as usize % SPECIAL.len()]),
                1 => char::from_u32(code % 0x80),
                _ => char::from_u32(code),
            })
            .collect();
        let value = Value::Object(vec![(
            text.clone(),
            Value::Array(vec![Value::Str(text.clone()), Value::Str(String::new())]),
        )]);
        let rendered = render_compact(&value);
        prop_assert_eq!(parse(&rendered).expect("rendered JSON parses"), value);
    }
}

// Derived types of every shape the vendored derive supports, for the typed
// encoder proptest below.

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Marker;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Meters(f64);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Span(i32, u64);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Stop,
    Weight(f32),
    Range(i64, f64),
    Branch {
        label: String,
        children: Vec<Node>,
        tags: BTreeMap<u16, String>,
    },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op")]
enum Op {
    Noop,
    Move { by: Meters, to: Option<Span> },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Doc {
    marker: Marker,
    ops: Vec<Op>,
    root: Node,
    boxed: Box<Node>,
    index: HashMap<(u8, String), Vec<f64>>,
    names: HashSet<String>,
    queue: VecDeque<usize>,
    letter: char,
    maybe: Option<i16>,
    flags: (bool, i8, u32),
}

/// Draws typed values; non-finite floats appear only when `finite` is off.
struct Gen {
    rng: StdRng,
    finite: bool,
}

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_u64() % n
    }

    fn f64(&mut self) -> f64 {
        const EDGES: [f64; 8] = [-0.0, 0.0, 5e-324, 2.2e-308, 1e300, f64::MAX, 0.1, 1.0];
        let x = match self.below(4) {
            0 => EDGES[self.below(EDGES.len() as u64) as usize],
            1 => self.rng.random_range(-1e6..1e6),
            _ => f64::from_bits(self.rng.next_u64()),
        };
        if self.finite && !x.is_finite() {
            1.5
        } else {
            x
        }
    }

    fn f32(&mut self) -> f32 {
        let x = f32::from_bits(self.rng.next_u32());
        if self.finite && !x.is_finite() {
            -2.5
        } else {
            x
        }
    }

    fn char(&mut self) -> char {
        const SPECIAL: [char; 8] = [
            '"', '\\', '/', '\n', '\u{0}', '\u{1f}', '\u{7f}', '\u{2028}',
        ];
        match self.below(3) {
            0 => SPECIAL[self.below(SPECIAL.len() as u64) as usize],
            1 => char::from_u32(self.below(0x80) as u32).unwrap_or('a'),
            _ => char::from_u32(self.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
        }
    }

    fn string(&mut self) -> String {
        let n = self.below(6);
        (0..n).map(|_| self.char()).collect()
    }

    fn node(&mut self, depth: u32) -> Node {
        match self.below(if depth == 0 { 3 } else { 4 }) {
            0 => Node::Stop,
            1 => Node::Weight(self.f32()),
            2 => Node::Range(self.rng.next_u64() as i64, self.f64()),
            _ => Node::Branch {
                label: self.string(),
                children: (0..self.below(4)).map(|_| self.node(depth - 1)).collect(),
                tags: (0..self.below(4))
                    .map(|_| (self.below(2000) as u16, self.string()))
                    .collect(),
            },
        }
    }

    fn doc(&mut self) -> Doc {
        Doc {
            marker: Marker,
            ops: (0..self.below(4))
                .map(|_| match self.below(3) {
                    0 => Op::Noop,
                    1 => Op::Move {
                        by: Meters(self.f64()),
                        to: None,
                    },
                    _ => Op::Move {
                        by: Meters(self.f64()),
                        to: Some(Span(self.rng.next_u32() as i32, self.rng.next_u64())),
                    },
                })
                .collect(),
            root: self.node(3),
            boxed: Box::new(self.node(1)),
            index: (0..self.below(5))
                .map(|_| {
                    let key = (self.below(12) as u8, self.string());
                    (key, (0..self.below(3)).map(|_| self.f64()).collect())
                })
                .collect(),
            names: (0..self.below(5)).map(|_| self.string()).collect(),
            queue: (0..self.below(4))
                .map(|_| self.rng.next_u64() as usize)
                .collect(),
            letter: self.char(),
            maybe: self
                .rng
                .random_bool(0.5)
                .then(|| self.rng.next_u32() as i16),
            flags: (
                self.rng.random(),
                self.rng.next_u32() as i8,
                self.rng.next_u32(),
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn typed_values_encode_as_the_value_tree_renders(seed: u64) {
        for finite in [false, true] {
            let doc = Gen { rng: StdRng::seed_from_u64(seed), finite }.doc();
            let text = serde_json::to_string(&doc).expect("encodes");
            let tree = parse(&text).expect("encoded text parses");
            prop_assert_eq!(render_compact(&tree), text.clone());
            if finite {
                let back: Doc = serde_json::from_str(&text).expect("decodes");
                prop_assert_eq!(back, doc);
            }
        }
    }
}

/// `depth` arrays nested inside one another.
fn nested_arrays(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

#[test]
fn json_nesting_is_capped_at_128_levels() {
    assert!(parse(&nested_arrays(128)).is_ok());
    let deep = parse(&nested_arrays(129)).expect_err("129 levels are rejected");
    assert_eq!(
        deep.to_string(),
        "deserialization error: recursion limit exceeded at byte 128"
    );
    let objects = "{\"a\":".repeat(129) + "1" + &"}".repeat(129);
    assert!(parse(&objects).is_err());
    // Far past the cap the parser still answers with an error, not a stack
    // overflow.
    assert!(parse(&"[".repeat(100_000)).is_err());
}

#[test]
fn json_parse_errors_report_their_byte_offsets() {
    for (input, message) in [
        ("{} x", "trailing characters at byte 3"),
        ("[1,]", "expected a JSON value at byte 3"),
        ("[1 2]", "expected ',' or ']' at byte 3"),
        ("{\"a\" 1}", "expected ':' at byte 5"),
        ("{\"a\":1 \"b\"}", "expected ',' or '}' at byte 7"),
        ("tru", "expected 'true' at byte 0"),
        ("-", "invalid number '-' at byte 1"),
        ("\"abc", "unterminated string at byte 4"),
        ("\"é\u{2603}", "unterminated string at byte 6"),
        ("\"é\\", "bad escape at byte 3"),
        ("\"ab\\q\"", "unknown escape at byte 5"),
        ("\"\\u12\"", "bad \\u escape at byte 3"),
        ("\"\\uzzzz\"", "bad \\u escape at byte 3"),
    ] {
        let err = parse(input).expect_err(input);
        assert_eq!(
            err.to_string(),
            format!("deserialization error: {message}"),
            "{input:?}"
        );
    }
}
