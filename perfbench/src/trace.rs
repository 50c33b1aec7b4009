//! In-memory span recorder and host clocks.
//!
//! Spans are taken from the benchmark's own code, around the calls it
//! makes into each layer's public functions. Recording is off unless
//! [`enable`] was called; a disabled [`span`] costs one relaxed load.
//! Every span keeps its name, start, end, parent span, owner (a rank or a
//! request id) and the calling thread's CPU time inside the call, which
//! splits the call into *busy* (CPU) and *wait* (wall minus CPU).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// CPU time of the calling thread inside the call.
    pub busy_ns: u64,
    /// Rank or request id the call was made for.
    pub owner: i64,
    pub tid: u64,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Start recording spans (and fix the epoch trace timestamps count from).
pub fn enable() {
    epoch();
    ON.store(true, Ordering::SeqCst);
}

/// Stop recording spans.
pub fn disable() {
    ON.store(false, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Run `f`, recording it as a span named `name` for `owner` when
/// recording is on. Spans opened inside `f` on the same thread become its
/// children.
pub fn span<T>(name: &'static str, owner: i64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let p = o.last().copied();
        o.push(id);
        p
    });
    let base = epoch();
    // The wall interval encloses the CPU interval, so busy <= wall.
    let t0 = base.elapsed().as_nanos() as u64;
    let c0 = thread_cpu_ns();
    let out = f();
    let c1 = thread_cpu_ns();
    let t1 = base.elapsed().as_nanos() as u64;
    OPEN.with(|o| o.borrow_mut().pop());
    let s = Span {
        id,
        parent,
        name,
        start_ns: t0,
        end_ns: t1,
        busy_ns: c1.saturating_sub(c0).min(t1 - t0),
        owner,
        tid: TID.with(|t| *t),
    };
    SPANS.lock().expect("span store poisoned").push(s);
    out
}

/// Remove and return every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Per-name totals of a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerSum {
    pub calls: u64,
    pub wall_ns: u64,
    pub busy_ns: u64,
    pub wait_ns: u64,
    /// Wall time minus the time covered by child spans.
    pub self_ns: u64,
}

/// Sum spans per name. Children run inside their parent on the same
/// thread, so they never overlap one another and the covered time is the
/// sum of their durations.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerSum> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.wall_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerSum> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        let wall = s.wall_ns();
        e.calls += 1;
        e.wall_ns += wall;
        e.busy_ns += s.busy_ns;
        e.wait_ns += wall - s.busy_ns;
        e.self_ns += wall.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Render the per-layer summary as a JSON document.
pub fn summary_json(sums: &BTreeMap<&'static str, LayerSum>) -> String {
    let rows: Vec<String> = sums
        .iter()
        .map(|(name, s)| {
            format!(
                "    \"{name}\": {{ \"calls\": {}, \"wall_ns\": {}, \"busy_ns\": {}, \"wait_ns\": {}, \"self_ns\": {} }}",
                s.calls, s.wall_ns, s.busy_ns, s.wait_ns, s.self_ns
            )
        })
        .collect();
    format!("{{\n  \"layers\": {{\n{}\n  }}\n}}\n", rows.join(",\n"))
}

/// Spans written to a Chrome trace at most; the per-layer summary always
/// covers every span.
const CHROME_MAX_SPANS: usize = 100_000;

/// Render spans as Chrome trace-event JSON (complete events, one track per
/// thread), which Perfetto and chrome://tracing load. Only the first
/// [`CHROME_MAX_SPANS`] spans are written, to keep the file loadable.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = format!(
        "{{ \"displayTimeUnit\": \"ns\", \"otherData\": {{ \"spans\": {}, \"written\": {} }}, \"traceEvents\": [\n",
        spans.len(),
        spans.len().min(CHROME_MAX_SPANS)
    );
    for (i, s) in spans.iter().take(CHROME_MAX_SPANS).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{ \"name\": \"{}\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{ \"id\": {}, \"parent\": {parent}, \
             \"owner\": {}, \"busy_ns\": {} }} }}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.wall_ns() as f64 / 1e3,
            s.id,
            s.owner,
            s.busy_ns
        );
    }
    out.push_str("\n] }\n");
    out
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this crate builds for), and both
    // clock ids are valid on Linux; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by the whole process.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_MMAP_THRESHOLD` parameter of `mallopt`.
const M_MMAP_THRESHOLD: i32 = -3;

/// Serve every allocation of 128 KiB or more from a mapping of its own,
/// and keep glibc from raising that threshold as such blocks are freed.
/// Growing sample vectors then move by remapping, instead of leaving
/// holes in the heap at points that depend on timing, so the resident
/// memory of an operation repeats from run to run.
pub fn pin_mmap_threshold() {
    // SAFETY: mallopt only sets an allocator parameter; setting this one
    // is allowed at any time.
    unsafe { mallopt(M_MMAP_THRESHOLD, 128 << 10) };
}

/// Hand free heap memory back to the system, then restart the peak
/// resident set size from the current one, so the next [`peak_rss_mb`]
/// covers only what the operations in between needed, not what earlier
/// ones left in the allocator.
pub fn reset_peak_rss() {
    // SAFETY: glibc's malloc_trim takes a byte count and only releases
    // free memory inside the allocator's own arenas.
    unsafe { malloc_trim(0) };
    // Writing "5" to clear_refs resets VmHWM (Linux 4.0 and later).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The `/proc/self/status` field `key` (a size in kB) in MB, or NaN when
/// it cannot be read.
fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mk = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: if parent.is_some() { "child" } else { "parent" },
            start_ns,
            end_ns,
            busy_ns: 0,
            owner: 0,
            tid: 1,
        };
        let spans = [
            mk(1, None, 0, 100),
            mk(2, Some(1), 10, 30),
            mk(3, Some(1), 40, 70),
        ];
        let sums = summarize(&spans);
        assert_eq!(sums["parent"].self_ns, 50);
        assert_eq!(sums["child"].calls, 2);
        assert_eq!(sums["child"].self_ns, 50);
        assert_eq!(sums["parent"].wait_ns, 100);
    }

    #[test]
    fn clocks_advance() {
        let c0 = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_ns() > c0, "{x}");
        assert!(process_cpu_ns() > 0);
        assert!(peak_rss_mb() > 0.0);
    }
}
