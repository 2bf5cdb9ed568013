//! What the results were measured on: recorded in every result file.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub struct Host {
    pub cores: usize,
    pub mem_total_mb: u64,
    /// Filesystem type holding the benchmark's scratch directory, where
    /// every fsync of a run lands.
    pub scratch_fs: String,
    pub commit: String,
    pub profile: &'static str,
}

impl Host {
    pub fn probe(scratch: &Path) -> Host {
        Host {
            cores: cores(),
            mem_total_mb: proc_kb("/proc/meminfo", "MemTotal:") / 1024,
            scratch_fs: fs_type(scratch),
            commit: commit(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\":{},\"mem_total_mb\":{},\"scratch_fs\":\"{}\",\"commit\":\"{}\",\"profile\":\"{}\"}}",
            self.cores, self.mem_total_mb, self.scratch_fs, self.commit, self.profile
        )
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    proc_kb("/proc/self/status", "VmHWM:") as f64 / 1024.0
}

fn proc_kb(file: &str, key: &str) -> u64 {
    std::fs::read_to_string(file)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// The type of the mount with the longest mount point that prefixes `dir`.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split(' ');
                    let (_dev, point, kind) = (f.next()?, f.next()?, f.next()?);
                    dir.starts_with(point)
                        .then(|| (point.len(), kind.to_string()))
                })
                .max_by_key(|(len, _)| *len)
        })
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// The commit the benchmark was built from, when the checkout is a git
/// repository (the driver's is not).
fn commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let read = |p: &str| std::fs::read_to_string(root.join(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|sha| sha.trim().to_string()))
        }),
    };
    match resolved {
        Some(sha) if sha.len() >= 7 && sha.bytes().all(|b| b.is_ascii_hexdigit()) => sha,
        _ => "unknown".into(),
    }
}

/// The cores the process found itself with, counted before any thread was
/// confined to one of them: what builds and servers size themselves by.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A `cpu_set_t`: one bit per core, 1,024 of them.
type CpuSet = [u64; 16];

/// The cores this process may run on as it found them, or `None` where the
/// kernel would not say: nothing is confined then.
fn home_cores() -> Option<&'static CpuSet> {
    static HOME: OnceLock<Option<CpuSet>> = OnceLock::new();
    HOME.get_or_init(|| {
        cores();
        let mut set: CpuSet = [0; 16];
        // SAFETY: `sched_getaffinity(0, …)` writes at most `size_of::<CpuSet>()`
        // bytes into `set`, which is that large and live during the call.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0 && set.iter().any(|w| *w != 0)).then_some(set)
    })
    .as_ref()
}

fn run_on(set: &CpuSet) -> bool {
    // SAFETY: `sched_setaffinity(0, …)` changes the calling thread only and
    // reads `size_of::<CpuSet>()` bytes of `set`, live during the call.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

static CONFINED: AtomicBool = AtomicBool::new(false);

/// Confines the calling thread, and every thread started from it from now
/// on, to the first core the process may use. A request is a chain of four
/// thread wake-ups (client, event loop, worker, client); between two
/// virtual cores each of them is an interrupt through the hypervisor, and
/// the paced median then swung between 100 and 220 µs from one second to
/// the next within a run, by which threads happened to share a core. On
/// one core a wake-up is a context switch, and the same median holds
/// within a few per cent. Builds leave the confinement (see [`AllCores`]).
pub fn confine_to_one_core() {
    let Some(home) = home_cores() else { return };
    let mut one: CpuSet = [0; 16];
    let word = home.iter().position(|w| *w != 0).expect("a home core");
    one[word] = 1 << home[word].trailing_zeros();
    CONFINED.store(run_on(&one), Ordering::Relaxed);
}

/// While it lives the calling thread, and the threads it starts, may run
/// on every core again: a build runs on as many workers as there are cores.
pub struct AllCores(());

impl AllCores {
    pub fn enter() -> AllCores {
        if CONFINED.load(Ordering::Relaxed) {
            run_on(home_cores().expect("confined from the home cores"));
        }
        AllCores(())
    }
}

impl Drop for AllCores {
    fn drop(&mut self) {
        if CONFINED.load(Ordering::Relaxed) {
            confine_to_one_core();
        }
    }
}

/// Keeps every core the calling thread may run on out of its idle state
/// while it lives: one thread per such core spinning under `SCHED_IDLE`,
/// which any other runnable thread preempts at once. On a virtual machine an idle core costs its next
/// wake-up a trip through the hypervisor, and how long that takes depends
/// on what the core did in the last seconds; with no core ever idle, a
/// request's latency is the program's own.
pub struct KeepAwake {
    stop: std::sync::Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
}

const SCHED_IDLE: i32 = 5;

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cores)
            .map(|_| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: `sched_setscheduler(0, …)` changes the policy of
                    // the calling thread only and reads `param`, a live,
                    // correctly laid out `struct sched_param`, during the call.
                    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
                    // Without the idle policy a spinner would take a core
                    // from the program: do not spin at all.
                    while rc == 0 && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
