//! The four workloads: their request bodies, request-class mix, server
//! flags, and the digests their responses are checked against.

use std::collections::HashMap;

use crate::stats::SplitMix;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Result-cache hits through `prophet route`: the front door alone.
    RoutedHit,
    /// Result cache off, profiles warm: per-prediction emulation cost.
    EmulateMiss,
    /// A restarted daemon reading every profile back from its store.
    RestartReplay,
    /// Never-seen programs: profile, encode, append, emulate.
    ColdStart,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RoutedHit,
        Workload::EmulateMiss,
        Workload::RestartReplay,
        Workload::ColdStart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RoutedHit => "routed_hit",
            Workload::EmulateMiss => "emulate_miss",
            Workload::RestartReplay => "restart_replay",
            Workload::ColdStart => "cold_start",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Keep-alive connections the load process holds open.
    pub fn connections(self) -> usize {
        match self {
            Workload::RoutedHit => 2,
            _ => 1,
        }
    }

    pub fn routed(self) -> bool {
        self == Workload::RoutedHit
    }

    pub fn uses_store(self) -> bool {
        matches!(self, Workload::RestartReplay | Workload::ColdStart)
    }

    /// `prophet serve` flags besides `--addr` and `--store-dir`.
    pub fn daemon_flags(self) -> Vec<String> {
        let cache = if self == Workload::RoutedHit {
            "512"
        } else {
            "0"
        };
        ["--workers", "1", "--jobs", "1", "--cache-cap", cache]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }
}

/// A `POST /v1/predict` body, kept structured so the in-process replay
/// can expand the same grid the daemon does.
#[derive(Clone, Debug)]
pub struct Body {
    /// Workload list in `prophet sweep` syntax (`"md"`, `"test1:7"`,
    /// `"test1:0..256"`).
    pub workloads: String,
    pub threads: Vec<u32>,
    pub schedule: Option<&'static str>,
    pub predictors: Vec<&'static str>,
}

impl Body {
    fn new(workloads: impl Into<String>, threads: &[u32], predictors: &[&'static str]) -> Body {
        Body {
            workloads: workloads.into(),
            threads: threads.to_vec(),
            schedule: None,
            predictors: predictors.to_vec(),
        }
    }

    fn schedule(mut self, s: &'static str) -> Body {
        self.schedule = Some(s);
        self
    }

    pub fn json(&self) -> String {
        let key = if self.workloads.contains(',') || self.workloads.contains("..") {
            "workloads"
        } else {
            "workload"
        };
        let threads: Vec<String> = self.threads.iter().map(u32::to_string).collect();
        let preds: Vec<String> = self.predictors.iter().map(|p| format!("\"{p}\"")).collect();
        let sched = self
            .schedule
            .map(|s| format!(",\"schedule\":\"{s}\""))
            .unwrap_or_default();
        format!(
            "{{\"{key}\":\"{}\",\"threads\":[{}]{sched},\"predictors\":[{}]}}",
            self.workloads,
            threads.join(","),
            preds.join(",")
        )
    }
}

/// One request class: `weight` requests of every deck, `rank` its
/// declared cost order (0 = cheapest).
#[derive(Clone, Debug)]
pub struct Class {
    pub name: &'static str,
    pub weight: u32,
    pub rank: u32,
}

/// A request as the load loop sends it.
pub struct Req {
    pub body: String,
    pub class: u16,
    /// Index of the expected digest.
    pub slot: usize,
}

/// cold_start draws its programs from this many seeds; the digest file
/// holds one entry per seed.
pub const COLD_POOL: usize = 8192;
const COLD_BASE: u64 = 2_000_000;
/// restart_replay's stored programs (disjoint from the cold pool).
const REPLAY_BASE: u64 = 1_000_000;
const REPLAY_TEST1: u64 = 256;
const REPLAY_TEST2: u64 = 64;
const GRID: [u32; 6] = [2, 4, 6, 8, 10, 12];

/// A workload's request source for one run.
pub struct Mix {
    pub workload: Workload,
    pub classes: Vec<Class>,
    /// Distinct bodies (fixed workloads) with their class.
    pub bodies: Vec<(Body, u16)>,
    /// One deck: body indices in this run's seeded order.
    deck: Vec<usize>,
    /// cold_start: this run's first pool index.
    cold_offset: usize,
    /// Expected response digest per slot.
    digests: Vec<Option<u32>>,
}

impl Mix {
    pub fn new(workload: Workload, seed: u64) -> Mix {
        let mut rng = SplitMix(seed ^ 0x5eed_0000 ^ (workload as u64) << 40);
        // Requests of each body per deck: one, except in emulate_miss.
        let mut counts = Vec::new();
        let (classes, bodies) = match workload {
            Workload::RoutedHit => {
                let mut names: Vec<String> = (1..=12).map(|s| format!("test1:{s}")).collect();
                names.extend(["md", "ep", "pi", "mandelbrot"].map(String::from));
                let bodies = names
                    .into_iter()
                    .map(|w| (Body::new(w, &GRID, &["ff"]).schedule("static"), 0))
                    .collect();
                (vec![class("hit", 16, 0)], bodies)
            }
            Workload::EmulateMiss => {
                // A deck of 10: p50 sits mid md-static, p90 mid
                // lu-expanded, each 10% of requests from a boundary.
                // lu with dynamic-1 or guided-4 costs about 40 times md
                // static and the two cost the same, so they form one
                // class.
                let spec: [(u16, &str, &str, usize); 7] = [
                    (0, "ep", "static", 1),
                    (0, "cg", "static", 1),
                    (1, "md", "static", 4),
                    (2, "md", "dynamic-1", 1),
                    (2, "md", "guided-4", 1),
                    (3, "lu", "dynamic-1", 1),
                    (3, "lu", "guided-4", 1),
                ];
                counts = spec.iter().map(|s| s.3).collect();
                let classes = vec![
                    class("fast-static", 2, 0),
                    class("md-static", 4, 1),
                    class("md-expanded", 2, 2),
                    class("lu-expanded", 2, 3),
                ];
                let bodies = spec
                    .iter()
                    .map(|&(c, wl, s, _)| (Body::new(wl, &GRID, &["ff"]).schedule(s), c))
                    .collect();
                (classes, bodies)
            }
            Workload::RestartReplay => {
                let mut bodies = Vec::new();
                for (fam, n, c) in [("test1", REPLAY_TEST1, 0), ("test2", REPLAY_TEST2, 1)] {
                    for i in 0..n {
                        let wl = format!("{fam}:{}", REPLAY_BASE + i);
                        bodies.push((Body::new(wl, &[2, 4, 8], &["ff"]), c));
                    }
                }
                let classes = vec![
                    class("test1", REPLAY_TEST1 as u32, 0),
                    class("test2", REPLAY_TEST2 as u32, 1),
                ];
                (classes, bodies)
            }
            Workload::ColdStart => (vec![class("test1", 4, 0), class("test2", 1, 1)], Vec::new()),
        };
        counts.resize(bodies.len(), 1);
        let mut deck: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &n)| std::iter::repeat_n(i, n))
            .collect();
        rng.shuffle(&mut deck);
        let cold_offset = (rng.next_u64() % COLD_POOL as u64) as usize;
        Mix {
            workload,
            classes,
            bodies,
            deck,
            cold_offset,
            digests: Vec::new(),
        }
    }

    /// Requests per deck (cold_start: one test1/test2 cycle).
    pub fn deck_len(&self) -> usize {
        match self.workload {
            Workload::ColdStart => 5,
            _ => self.deck.len(),
        }
    }

    /// The `k`-th request of connection `conn`. Connections start half a
    /// deck apart so concurrent ones send different bodies.
    pub fn request(&self, conn: usize, k: usize) -> Req {
        if self.workload == Workload::ColdStart {
            let slot = (self.cold_offset + k) % COLD_POOL;
            let (body, class) = cold_body(slot);
            return Req {
                body: body.json(),
                class,
                slot,
            };
        }
        let d = self.deck.len();
        let slot = self.deck[(k + conn * d / 2) % d];
        let (body, class) = &self.bodies[slot];
        Req {
            body: body.json(),
            class: *class,
            slot,
        }
    }

    /// Whether another deck would reuse a cold_start seed.
    pub fn exhausted(&self, k: usize) -> bool {
        self.workload == Workload::ColdStart && k + self.deck_len() > COLD_POOL
    }

    /// Bodies a run sends during set-up, before the warm-up.
    pub fn setup_bodies(&self) -> Vec<Body> {
        match self.workload {
            Workload::RoutedHit => self.bodies.iter().map(|(b, _)| b.clone()).collect(),
            Workload::EmulateMiss => vec![Body::new("ep,cg,md,lu", &[2], &["ff"])],
            Workload::RestartReplay => vec![
                Body::new(
                    format!("test1:{}..{}", REPLAY_BASE, REPLAY_BASE + REPLAY_TEST1),
                    &[2],
                    &["ff"],
                ),
                Body::new(
                    format!("test2:{}..{}", REPLAY_BASE, REPLAY_BASE + REPLAY_TEST2),
                    &[2],
                    &["ff"],
                ),
            ],
            // Primes the daemon's lazy state with a seed outside the pool.
            Workload::ColdStart => vec![cold_prime_body()],
        }
    }

    /// Every distinct body this workload can send, with its slot.
    pub fn all_bodies(&self) -> Vec<(usize, Body)> {
        match self.workload {
            Workload::ColdStart => (0..COLD_POOL).map(|s| (s, cold_body(s).0)).collect(),
            _ => self
                .bodies
                .iter()
                .enumerate()
                .map(|(i, (b, _))| (i, b.clone()))
                .collect(),
        }
    }

    /// The first `n` requests of this run's order with their expected
    /// digests, for the replay.
    pub fn sample_bodies(&self, n: usize) -> Vec<(Body, Option<u32>)> {
        (0..n)
            .map(|k| {
                let slot = match self.workload {
                    Workload::ColdStart => (self.cold_offset + k) % COLD_POOL,
                    _ => self.deck[k % self.deck.len()],
                };
                let body = match self.workload {
                    Workload::ColdStart => cold_body(slot).0,
                    _ => self.bodies[slot].0.clone(),
                };
                (body, self.digest(slot))
            })
            .collect()
    }

    pub fn digest(&self, slot: usize) -> Option<u32> {
        self.digests.get(slot).copied().flatten()
    }

    /// Load this workload's section of the digest file.
    pub fn load_digests(&mut self, text: &str) -> Result<(), String> {
        let sections = parse_digest_file(text)?;
        let section = sections
            .get(self.workload.name())
            .ok_or_else(|| format!("digest file has no [{}] section", self.workload.name()))?;
        let expected = match self.workload {
            Workload::ColdStart => COLD_POOL,
            _ => self.bodies.len(),
        };
        if section.len() != expected {
            return Err(format!(
                "digest section [{}] has {} entries, expected {expected}",
                self.workload.name(),
                section.len()
            ));
        }
        let by_body: HashMap<&str, u32> = section
            .iter()
            .filter_map(|(d, b)| b.as_deref().map(|b| (b, *d)))
            .collect();
        self.digests = match self.workload {
            Workload::ColdStart => section.iter().map(|(d, _)| Some(*d)).collect(),
            _ => self
                .bodies
                .iter()
                .map(|(b, _)| by_body.get(b.json().as_str()).copied())
                .collect(),
        };
        Ok(())
    }

    /// Smallest distance between each gated percentile and a class
    /// boundary of the mix, in share of requests, with classes ordered
    /// by `rank`. A percentile closer than a few percent to a boundary
    /// would flip between two classes from run to run.
    pub fn boundary_margin(classes: &[Class], p: u32) -> f64 {
        let mut sorted: Vec<&Class> = classes.iter().collect();
        sorted.sort_by_key(|c| c.rank);
        let total: u32 = sorted.iter().map(|c| c.weight).sum();
        let q = f64::from(p) / 100.0;
        let mut cum = 0u32;
        let mut margin = f64::INFINITY;
        for c in &sorted[..sorted.len().saturating_sub(1)] {
            cum += c.weight;
            margin = margin.min((q - f64::from(cum) / f64::from(total)).abs());
        }
        margin
    }
}

fn class(name: &'static str, weight: u32, rank: u32) -> Class {
    Class { name, weight, rank }
}

/// cold_start's pool body at `slot`: every fifth program is a test2.
pub fn cold_body(slot: usize) -> (Body, u16) {
    let (fam, class) = if slot % 5 == 4 {
        ("test2", 1)
    } else {
        ("test1", 0)
    };
    let wl = format!("{fam}:{}", COLD_BASE + slot as u64);
    (Body::new(wl, &[2], &["ff", "syn"]), class)
}

fn cold_prime_body() -> Body {
    Body::new(format!("test1:{}", COLD_BASE - 1), &[2], &["ff", "syn"])
}

type DigestSections = HashMap<String, Vec<(u32, Option<String>)>>;

/// Parse `digests.txt`: `[workload]` headers, then one `<hex32> [body]`
/// line per distinct request body (cold_start lines carry no body; the
/// line number is the pool slot).
pub fn parse_digest_file(text: &str) -> Result<DigestSections, String> {
    let mut out: DigestSections = HashMap::new();
    let mut current: Option<String> = None;
    for (no, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            current = Some(name.to_string());
            out.entry(name.to_string()).or_default();
            continue;
        }
        let section = current
            .as_ref()
            .ok_or_else(|| format!("digest line {} before any section", no + 1))?;
        let (hex, body) = match line.split_once(' ') {
            Some((h, b)) => (h, Some(b.to_string())),
            None => (line, None),
        };
        let d = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("digest line {}: bad hex {hex:?}", no + 1))?;
        out.get_mut(section)
            .expect("section created at its header")
            .push((d, body));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_gated_percentile_sits_on_a_class_boundary() {
        for w in Workload::ALL {
            let mix = Mix::new(w, 1);
            for p in [50, 90] {
                let m = Mix::boundary_margin(&mix.classes, p);
                assert!(
                    m >= 0.025,
                    "{}: p{p} is {m:.3} from a class boundary",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn margin_is_measured_from_cumulative_weights() {
        let classes = [class("a", 1, 0), class("b", 1, 1)];
        assert_eq!(Mix::boundary_margin(&classes, 50), 0.0);
        assert!((Mix::boundary_margin(&classes, 90) - 0.4).abs() < 1e-12);
        assert_eq!(
            Mix::boundary_margin(&[class("only", 3, 0)], 90),
            f64::INFINITY
        );
    }

    #[test]
    fn decks_hold_the_declared_weights() {
        for w in [
            Workload::RoutedHit,
            Workload::EmulateMiss,
            Workload::RestartReplay,
        ] {
            let mix = Mix::new(w, 3);
            let mut count = vec![0u32; mix.classes.len()];
            for k in 0..mix.deck_len() {
                count[mix.request(0, k).class as usize] += 1;
            }
            let want: Vec<u32> = mix.classes.iter().map(|c| c.weight).collect();
            assert_eq!(count, want, "{}", w.name());
        }
        let cold = Mix::new(Workload::ColdStart, 3);
        let classes: Vec<u16> = (0..5).map(|k| cold.request(0, k).class).collect();
        assert_eq!(classes.iter().filter(|&&c| c == 1).count(), 1);
    }

    #[test]
    fn same_seed_same_inputs_and_cold_seeds_never_repeat() {
        for w in Workload::ALL {
            let a: Vec<String> = (0..40).map(|k| Mix::new(w, 9).request(0, k).body).collect();
            let b: Vec<String> = (0..40).map(|k| Mix::new(w, 9).request(0, k).body).collect();
            assert_eq!(a, b);
        }
        let cold = Mix::new(Workload::ColdStart, 5);
        let mut seen = std::collections::HashSet::new();
        let mut k = 0;
        while !cold.exhausted(k) {
            assert!(seen.insert(cold.request(0, k).body));
            k += 1;
        }
        assert!(k >= COLD_POOL - 5);
    }

    #[test]
    fn cold_and_replay_programs_are_disjoint() {
        let replay = Mix::new(Workload::RestartReplay, 1);
        let stored: std::collections::HashSet<String> = replay
            .bodies
            .iter()
            .map(|(b, _)| b.workloads.clone())
            .collect();
        for slot in 0..COLD_POOL {
            assert!(!stored.contains(&cold_body(slot).0.workloads));
        }
        assert!(!stored.contains(&cold_prime_body().workloads));
    }

    #[test]
    fn bodies_render_as_the_daemon_expects() {
        let b = Body::new("md", &[2, 4], &["ff"]).schedule("dynamic-1");
        assert_eq!(
            b.json(),
            r#"{"workload":"md","threads":[2,4],"schedule":"dynamic-1","predictors":["ff"]}"#
        );
        let r = Body::new("test1:0..3", &[2], &["ff", "syn"]);
        assert_eq!(
            r.json(),
            r#"{"workloads":"test1:0..3","threads":[2],"predictors":["ff","syn"]}"#
        );
    }

    #[test]
    fn digest_file_round_trips() {
        let text = "# c\n[a]\n0000002a {\"x\":1}\n[cold_start]\nffffffff\n00000001\n";
        let s = parse_digest_file(text).expect("parses");
        assert_eq!(s["a"], vec![(42, Some("{\"x\":1}".to_string()))]);
        assert_eq!(s["cold_start"].len(), 2);
        assert!(parse_digest_file("00000001\n").is_err());
    }
}
