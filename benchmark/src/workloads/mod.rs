//! The five workloads and the phases they are made of.
//!
//! Every run executes the same three groups of phases — **build** (generate
//! and publish a site), **serve** (paced, closed and hub traffic against a
//! click-time server) and **store** (commit → fresh page cycles and
//! restarts over the paged store) — so every run measures every metric. A
//! workload decides which group runs at full scale: that group is its
//! *primary*, timed for `setup_s` and given most of `--seconds`; the other
//! groups run on small probe sites.
//!
//! An untraced run takes its samples in [`ROUNDS`] rounds over all groups,
//! not group after group: the reference host slows down for seconds at a
//! time, and a median only shrugs that off if its samples are spread over
//! the whole run. All calls into the program go through [`crate::sut`].

mod build;
mod serve;
mod store;

use self::build::Build;
use self::serve::{serve_set_up, Quit, Serving};
use self::store::Store;
use crate::host;
use crate::report::Report;
use crate::stats::{median, Rng};
use crate::sut::{self, Result, SiteInput};
use crate::trace::Recorder;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct Workload {
    pub name: &'static str,
    /// The plan of an untraced (`false`) or a traced (`true`) run.
    plan: fn(&Scale, bool) -> Plan,
}

/// In `BENCHMARK.json` order; each `why` is recorded there.
pub static WORKLOADS: &[Workload] = &[
    Workload {
        name: "build_wide",
        plan: |s, traced| Plan {
            primary: Group::Build,
            // One build of the widest site takes longer than the whole
            // budget, and a single sample follows the host (12 to 18 s from
            // one run to the next): it is the traced run's, where no bound
            // hangs on it. Untraced runs repeat a build that fits.
            build: BuildPlan {
                news: Some(if traced { s.wide } else { s.cold }),
                members: 0,
                share: 1.0,
            },
            serve: vec![ServePlan::probe(s)],
            store: StorePlan::probe(s),
        },
    },
    Workload {
        name: "build_deep",
        plan: |s, _| Plan {
            primary: Group::Build,
            build: BuildPlan {
                news: None,
                members: s.org,
                share: 1.0,
            },
            serve: vec![ServePlan::probe(s)],
            store: StorePlan::probe(s),
        },
    },
    Workload {
        name: "browse_hot",
        plan: |s, _| Plan {
            primary: Group::Serve,
            build: BuildPlan::probe(s),
            // Hub pages of the wide site take seconds each (their link
            // de-duplication is quadratic), so hubs run on the probe site.
            serve: vec![
                ServePlan {
                    n: s.probe_served,
                    traffic: None,
                    hub_share: Some(0.2),
                },
                ServePlan {
                    n: s.wide,
                    traffic: Some(Traffic {
                        hot: true,
                        share: 0.6,
                    }),
                    hub_share: None,
                },
            ],
            store: StorePlan::probe(s),
        },
    },
    Workload {
        name: "browse_cold",
        plan: |s, _| Plan {
            primary: Group::Serve,
            build: BuildPlan::probe(s),
            serve: vec![ServePlan {
                n: s.cold,
                traffic: Some(Traffic {
                    hot: false,
                    share: 0.3,
                }),
                hub_share: Some(0.5),
            }],
            store: StorePlan::probe(s),
        },
    },
    Workload {
        name: "churn",
        plan: |s, _| Plan {
            primary: Group::Store,
            build: BuildPlan::probe(s),
            serve: vec![ServePlan::probe(s)],
            store: StorePlan {
                n: s.wide,
                share: 0.6,
                restarts: 5,
            },
        },
    },
];

/// Site sizes. `div` shrinks every site and cache together (`--smoke`
/// uses 50), keeping each workload on its side of the cache.
pub struct Scale {
    pub div: usize,
    pub wide: usize,
    pub cold: usize,
    pub org: usize,
    /// The probe site of build groups.
    pub probe: usize,
    /// The probe site of serve and store groups: large enough that a hub
    /// page or a restart is milliseconds of the program's own work, not
    /// the host's thread wake-ups.
    pub probe_served: usize,
}

impl Scale {
    pub fn new(div: usize) -> Scale {
        let div = div.max(1);
        Scale {
            div,
            wide: 100_000 / div,
            cold: 30_000 / div,
            org: 6_000 / div,
            probe: (4_000 / div).max(200),
            probe_served: (10_000 / div).max(200),
        }
    }

    /// The program's default page-cache bounds, shrunk with the sites.
    fn cache(&self) -> sut::CacheConfig {
        let d = sut::CacheConfig::default();
        sut::CacheConfig {
            max_entries: (d.max_entries / self.div).max(16),
            max_bytes: d.max_bytes,
        }
    }

    /// Size of the hot set: a quarter of what the cache holds, as 512
    /// pages of two clauses each are of 4,096 entries.
    fn hot_pages(&self) -> usize {
        self.cache().max_entries / 8
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Group {
    Build,
    Serve,
    Store,
}

struct Plan {
    primary: Group,
    build: BuildPlan,
    serve: Vec<ServePlan>,
    store: StorePlan,
}

/// `share` fields are fractions of `--seconds`.
struct BuildPlan {
    /// Articles of a news site, or `None` for the organization site.
    news: Option<usize>,
    members: usize,
    share: f64,
}

impl BuildPlan {
    fn probe(s: &Scale) -> BuildPlan {
        BuildPlan {
            news: Some(s.probe),
            members: 0,
            share: 0.2,
        }
    }
}

struct Traffic {
    /// Zipf over a set that fits the page cache, or uniform over every
    /// leaf page of a site that does not.
    hot: bool,
    /// Of the paced phase, and in a traced run of the closed phase too.
    share: f64,
}

struct ServePlan {
    n: usize,
    traffic: Option<Traffic>,
    hub_share: Option<f64>,
}

impl ServePlan {
    fn probe(s: &Scale) -> ServePlan {
        ServePlan {
            n: s.probe_served,
            traffic: Some(Traffic {
                hot: true,
                share: 0.15,
            }),
            hub_share: Some(0.2),
        }
    }
}

struct StorePlan {
    n: usize,
    share: f64,
    restarts: usize,
}

impl StorePlan {
    fn probe(s: &Scale) -> StorePlan {
        StorePlan {
            n: s.probe_served,
            share: 0.15,
            restarts: 24,
        }
    }
}

/// Rate of the paced phase, requests per second over both connections.
const PACED_RATE: u32 = 4_000;
/// Keep-alive reads after each commit → fresh-page cycle.
const READS_PER_CYCLE: usize = 50;
/// Times the primary group is set up at least; `setup_s` is the median.
const SETUPS: usize = 3;
/// A set-up of milliseconds is repeated until this many seconds are spent
/// on it, or `MAX_SETUPS` are done: three samples of 12 ms follow the timer.
const SETUP_FLOOR_S: f64 = 0.5;
const MAX_SETUPS: usize = 31;
/// Rounds an untraced run spreads every phase's budget over. A traced run
/// has one: its counts are fixed, and its phases are not gated.
const ROUNDS: usize = 8;

/// One run of one workload: its inputs and everything it records.
pub struct Env {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    pub scratch: PathBuf,
    pub rec: Recorder,
    pub report: Report,
}

impl Env {
    fn rounds(&self) -> usize {
        if self.traced {
            1
        } else {
            ROUNDS
        }
    }

    /// In a traced run, counts are fixed so that they repeat exactly at a
    /// fixed seed; they shrink with the scale.
    fn fixed(&self, full: usize) -> usize {
        (full / self.scale.div).max(20)
    }

    /// A phase's share of `--seconds`, to be spent over the rounds.
    fn clock(&self, share: f64) -> Clock {
        Clock {
            budget: Duration::from_secs_f64(self.seconds * share),
            spent: Duration::ZERO,
            rounds: self.rounds(),
        }
    }
}

/// How much of its budget a phase has used. In round `r` of `n` a phase
/// repeats while it has used less than `(r + 1)/n` of it, so an operation
/// longer than a round's slice simply skips rounds.
struct Clock {
    budget: Duration,
    spent: Duration,
    rounds: usize,
}

impl Clock {
    fn due(&self, round: usize) -> bool {
        self.spent < self.budget.mul_f64((round + 1) as f64 / self.rounds as f64)
    }

    fn slice(&self) -> Duration {
        self.budget.div_f64(self.rounds as f64)
    }
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn run(w: &Workload, env: &mut Env) -> Result<()> {
    let plan = (w.plan)(&env.scale, env.traced);
    // Everything but a build runs on one core from here on.
    host::confine_to_one_core();
    // Probe groups are set up first and step first in every round; the
    // primary group, which allocates and frees gigabytes, goes last.
    let mut order = [Group::Build, Group::Serve, Group::Store];
    order.sort_by_key(|g| *g == plan.primary);
    let (mut build, mut store) = (None, None);
    let mut served = Vec::new();
    for group in order {
        let primary = group == plan.primary;
        match group {
            Group::Build => build = Some(Build::set_up(env, &plan.build, primary)?),
            Group::Serve => {
                for (i, serve) in plan.serve.iter().enumerate() {
                    served.push(serve_set_up(
                        env,
                        serve,
                        primary && i + 1 == plan.serve.len(),
                    )?);
                }
            }
            Group::Store => store = Some(Store::set_up(env, &plan.store, primary)?),
        }
    }
    let (mut build, mut store) = (build.expect("set up"), store.expect("set up"));

    let cache = env.scale.cache();
    let mut servers = Vec::new();
    for s in &served {
        servers.push(sut::bind(sut::dynamic_site(&s.graph, &s.query, cache)?)?);
    }
    std::thread::scope(|scope| -> Result<()> {
        let mut addrs = Vec::new();
        let mut threads = Vec::new();
        for server in &servers {
            addrs.push(server.addr()?);
            threads.push(scope.spawn(move || server.serve(None)));
        }
        let quit = Quit(addrs);
        let mut serving = Vec::new();
        for ((s, server), plan) in served.iter().zip(&servers).zip(&plan.serve) {
            serving.push(Serving::start(env, plan, s, server)?);
        }
        // The core does not go idle while requests are timed (see
        // `KeepAwake`).
        let awake = host::KeepAwake::start();
        for round in 0..env.rounds() {
            for group in order {
                match group {
                    Group::Build => build.step(env, round)?,
                    Group::Serve => {
                        for s in &mut serving {
                            s.step(env, round)?;
                        }
                    }
                    Group::Store => store.step(env, round)?,
                }
            }
        }
        for s in serving {
            s.finish(env)?;
        }
        drop(awake);
        drop(quit);
        for t in threads {
            t.join().map_err(|_| "a server thread panicked")??;
        }
        Ok(())
    })?;
    drop(servers);
    drop(served);
    store.finish(env)?;
    build.finish(env)?;
    served_equals_built(env)?;
    if env.traced {
        layer_coverage(env);
        let ratio = env.report.failed as f64 / env.report.attempted.max(1) as f64;
        env.report.put("bench.fail_ratio", ratio, "ratio");
    } else {
        env.report.put("rss_peak_mb", host::rss_peak_mb(), "MB");
    }
    Ok(())
}

/// Runs `setup` `SETUPS` times or more when the group is primary —
/// recording the median as `setup_s` — and once otherwise; returns the last
/// result.
fn set_up<T>(env: &mut Env, primary: bool, mut setup: impl FnMut() -> Result<T>) -> Result<T> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    loop {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
        let cheap = times.iter().sum::<f64>() < SETUP_FLOOR_S && times.len() < MAX_SETUPS;
        if !primary || (times.len() >= SETUPS && !cheap) {
            break;
        }
    }
    if primary && !env.traced {
        env.report.put("setup_s", median(&mut times), "s");
    }
    Ok(last.expect("set up at least once"))
}

// ------------------------------------------------------------ checks ----

/// ROADMAP's served-equals-built invariant at link level: for 200 seeded
/// articles of the probe site, click-time `expand(ArticlePage(a))` yields
/// exactly the out-edges the static site graph has for that page.
fn served_equals_built(env: &mut Env) -> Result<()> {
    let n = env.scale.probe;
    let input = SiteInput::News(sut::news_ddl(n, env.seed));
    let mut system = input.system(1)?;
    let graph = system.data_graph()?;
    let position = sut::article_positions(graph, n)?;
    let nodes: Vec<sut::Oid> = position
        .iter()
        .map(|p| graph.nodes()[*p as usize])
        .collect();
    let build = system.build_site()?;
    let built = sut::StaticSite::new(&build);
    let site = system.dynamic_site_with(env.scale.cache())?;
    let mut rng = Rng::new(env.seed, 6);
    for _ in 0..200 {
        let page = sut::article_page(nodes[rng.below(n)]);
        let clicked = sut::link_set(&site.expand(&page)?);
        let same = built
            .links(&page)
            .is_some_and(|l| sut::link_set(&l) == clicked);
        env.report.check(same && !clicked.is_empty());
    }
    Ok(())
}

/// In a traced run the layers should account for the operations they make
/// up: inside every `build`, `fresh` and `restart` trace, the time booked to
/// the program's layers is at least 95 % of the trace (80 % at reduced
/// scale, where an operation is so short that the harness's own steps
/// between calls show). A stall of the host between two calls lowers it,
/// so a lower share is a warning about the numbers, not a wrong output.
fn layer_coverage(env: &mut Env) {
    let roots = env.rec.roots();
    let (mut lowest, mut of) = (1.0f64, "");
    for name in ["build", "fresh", "restart"] {
        if let Some(b) = roots.get(name).filter(|b| b.program_share() < lowest) {
            (lowest, of) = (b.program_share(), name);
        }
    }
    env.report.put("bench.layer_coverage", lowest, "ratio");
    let floor = if env.scale.div == 1 { 0.95 } else { 0.80 };
    env.report.warn(lowest >= floor, || {
        format!(
            "layer self-times cover only {:.1} % of the `{of}` traces",
            lowest * 100.0
        )
    });
}
