//! Seeded generators for the job streams. The benchmark's `--seed` goes
//! in here and nowhere else: the program only ever sees the jobs.

use bfly_farmd::{JobSpec, Value};

/// SplitMix64: a small, well-mixed generator, kept local so the streams
/// do not change when the program's own generators do.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of benchmark seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One job as the benchmark submits it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Experiment name.
    pub exp: &'static str,
    /// Parameters, as canonical JSON object text.
    pub params: &'static str,
    /// Seed (part of the cache key).
    pub seed: u64,
    /// Resubmit with `"cache":"refresh"`: recompute and overwrite.
    pub refresh: bool,
}

impl Job {
    /// The job object's fields, without braces.
    fn fields(&self) -> String {
        let mut s = format!(
            "\"exp\":\"{}\",\"params\":{},\"seed\":{}",
            self.exp, self.params, self.seed
        );
        if self.refresh {
            s.push_str(",\"cache\":\"refresh\"");
        }
        s
    }

    /// The `submit` request line.
    pub fn submit_line(&self) -> String {
        format!("{{\"op\":\"submit\",{}}}", self.fields())
    }

    /// The job as the daemon parses it.
    pub fn spec(&self) -> JobSpec {
        let v =
            bfly_farmd::json::parse(&format!("{{{}}}", self.fields())).expect("job lines are JSON");
        JobSpec::from_value(&v).expect("job lines are valid jobs")
    }

    /// Whether both jobs name the same result (experiment, parameters
    /// and seed), whatever their cache mode.
    pub fn the_same_result_as(&self, other: &Job) -> bool {
        self.exp == other.exp && self.params == other.params && self.seed == other.seed
    }
}

/// A FIG5 job small enough to warm quickly; its result is the largest of
/// the warm set.
const FIG5_SMALL: &str = "{\"n\":24,\"ps\":[8,16]}";

/// The fixed warm-key set of both serve workloads: T1 and T2 (small
/// results, cheap to run) and FIG5 (the largest result). Fixed, so every
/// run warms the same keys at the same cost; only the order in which
/// they are hit depends on the seed.
pub fn warm_keys() -> Vec<Job> {
    let mut keys = Vec::new();
    for seed in 1..=6 {
        keys.push(Job {
            exp: "tab1_memory",
            params: "{}",
            seed,
            refresh: false,
        });
    }
    for seed in 1..=4 {
        keys.push(Job {
            exp: "tab2_primitives",
            params: "{}",
            seed,
            refresh: false,
        });
    }
    for seed in 1..=2 {
        keys.push(Job {
            exp: "fig5_gauss",
            params: FIG5_SMALL,
            seed,
            refresh: false,
        });
    }
    keys
}

/// One round of warm hits: every warm key once, in a seeded order.
pub fn hit_round(seed: u64, stream: u64, round: u64, keys: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys).collect();
    Rng::new(seed, stream.wrapping_mul(1 << 32) ^ round).shuffle(&mut order);
    order
}

/// Mid-cost experiments (40–65 ms of simulation each at quick scale)
/// that the miss stream submits under fresh seeds. Their costs lie close
/// together, so the median miss sits in a dense part of the cost
/// distribution instead of on a step between two experiments.
pub const MISS_EXPS: [&str; 6] = [
    "tab12_models",
    "tab6_switch",
    "tab10_bridge",
    "tab14_bplus",
    "tab8_crowd",
    "tab4_hough_locality",
];

/// Warm keys a miss round resubmits with `refresh` (T2, about 80 ms),
/// with the number of such keys in the warm set.
const REFRESH_FROM: [(&str, usize); 1] = [("tab2_primitives", 4)];

/// Seeds at or above this are fresh: no warm key uses one.
const FRESH_BASE: u64 = 1 << 40;

/// One round of the miss stream: each of [`MISS_EXPS`] under a fresh
/// seed, plus a `refresh` resubmit of one warm T2 key, in a seeded
/// order. Every round has the same make-up, so the
/// share of each cost class in a run does not depend on the seed or on
/// how many rounds fit in the run.
pub fn miss_round(seed: u64, round: u64, warm: &[Job]) -> Vec<Job> {
    let mut rng = Rng::new(seed, 0x6d69_7373 ^ (round << 8));
    let mut jobs: Vec<Job> = MISS_EXPS
        .iter()
        .enumerate()
        .map(|(i, &exp)| Job {
            exp,
            params: "{}",
            // Distinct per (round, slot), so no two fresh jobs share a key.
            seed: FRESH_BASE + (round << 8 | i as u64) * 0x1_0000 + rng.below(0x1_0000),
            refresh: false,
        })
        .collect();
    for (exp, count) in REFRESH_FROM {
        let candidates: Vec<&Job> = warm.iter().filter(|j| j.exp == exp).collect();
        assert_eq!(candidates.len(), count, "warm set make-up");
        let pick = candidates[rng.below(count as u64) as usize];
        jobs.push(Job {
            refresh: true,
            ..pick.clone()
        });
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// Raw result bytes of a reply line whose last field is `result`, the
/// reply closing with `tail` after them (`}` for a status object, `}]}`
/// for a one-job `wait`). The daemon splices result bytes verbatim, so
/// this slice is exactly what the runner produced.
pub fn raw_result<'a>(reply: &'a str, tail: &str) -> Option<&'a str> {
    let at = reply.find("\"result\":")?;
    reply[at + "\"result\":".len()..].strip_suffix(tail)
}

/// Integer field of a reply object.
pub fn field_u64(reply: &Value, path: &[&str]) -> Option<u64> {
    let mut v = reply;
    for k in path {
        v = v.get(k)?;
    }
    v.as_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(42, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(42, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(Rng::new(42, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hit_rounds_are_seeded_permutations() {
        let n = warm_keys().len();
        let r = hit_round(7, 0, 3, n);
        assert_eq!(r, hit_round(7, 0, 3, n));
        let mut s = r.clone();
        s.sort_unstable();
        assert_eq!(s, (0..n).collect::<Vec<_>>());
        assert_ne!(r, hit_round(8, 0, 3, n), "seed changes the order");
    }

    #[test]
    fn miss_rounds_have_a_fixed_make_up_and_fresh_keys() {
        let warm = warm_keys();
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..50 {
            let jobs = miss_round(3, round, &warm);
            assert_eq!(jobs, miss_round(3, round, &warm));
            assert_eq!(jobs.len(), MISS_EXPS.len() + REFRESH_FROM.len());
            let refresh: Vec<&Job> = jobs.iter().filter(|j| j.refresh).collect();
            assert_eq!(refresh.len(), REFRESH_FROM.len());
            assert!(refresh
                .iter()
                .all(|r| warm.iter().any(|w| w.the_same_result_as(r))));
            for j in jobs.iter().filter(|j| !j.refresh) {
                assert!(j.seed >= FRESH_BASE);
                assert!(seen.insert((j.exp, j.seed)), "fresh keys never repeat");
            }
            let mut exps: Vec<&str> = jobs.iter().filter(|j| !j.refresh).map(|j| j.exp).collect();
            exps.sort_unstable();
            let mut want = MISS_EXPS.to_vec();
            want.sort_unstable();
            assert_eq!(exps, want);
        }
        assert_ne!(miss_round(3, 0, &warm), miss_round(4, 0, &warm));
    }

    #[test]
    fn job_lines_parse_as_the_daemon_parses_them() {
        let j = Job {
            exp: "fig5_gauss",
            params: FIG5_SMALL,
            seed: 9,
            refresh: true,
        };
        let spec = j.spec();
        assert_eq!(spec.exp, "fig5_gauss");
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.cache, bfly_farmd::CacheMode::Refresh);
        let v = bfly_farmd::json::parse(&j.submit_line()).unwrap();
        assert_eq!(v.get("op").and_then(Value::as_str), Some("submit"));
    }

    #[test]
    fn raw_result_slices_the_spliced_bytes() {
        let r = "{\"ok\":true,\"id\":3,\"state\":\"done\",\"result\":{\"a\":[1]}}";
        assert_eq!(raw_result(r, "}"), Some("{\"a\":[1]}"));
        let w = "{\"ok\":true,\"complete\":true,\"results\":[{\"id\":3,\"result\":{\"a\":1}}]}";
        assert_eq!(raw_result(w, "}]}"), Some("{\"a\":1}"));
        assert_eq!(raw_result("{\"ok\":false}", "}"), None);
    }
}
