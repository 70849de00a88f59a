//! The thread-local collector and the free-function hooks instrumented code
//! calls.
//!
//! # Overhead contract
//!
//! Every hook first reads one thread-local `bool`; with neither a collector
//! nor a capture installed that is the *entire* cost, so instrumented hot
//! paths stay within noise of uninstrumented builds. Only then does a hook
//! build its `Hook` value, which the collector applies or the capture
//! appends to its buffer. Hooks never touch the engine RNG and never alter
//! control flow, so fault-free runs are bit-identical with telemetry on or
//! off.
//!
//! # Capture and replay
//!
//! A collector belongs to one thread. Work that runs on another thread on
//! its behalf [`capture`]s its hooks into a [`Captured`] buffer, which
//! travels back with the work's results and is replayed into the collector
//! where they rejoin. Replaying at the point the work's results are used
//! gives the collector the order one thread would have fired them in.

use crate::jsonl::LineBuilder;
use crate::phase::{Phase, PHASE_COUNT};
use crate::registry::Registry;
use crate::ring_log::RingLog;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// Default number of trace records per windowed snapshot.
pub const DEFAULT_WINDOW_RECORDS: u64 = 1000;

/// Per-run state: the (phase × level) traffic matrix and span counts.
#[derive(Debug)]
struct RunState {
    levels: u8,
    records: u64,
    /// Reads then writes, `PHASE_COUNT` rows × `levels` columns each.
    reads: Vec<u64>,
    writes: Vec<u64>,
    spans: [u64; PHASE_COUNT],
}

impl RunState {
    fn new(levels: u8) -> Self {
        let cells = PHASE_COUNT * usize::from(levels.max(1));
        RunState {
            levels: levels.max(1),
            records: 0,
            reads: vec![0; cells],
            writes: vec![0; cells],
            spans: [0; PHASE_COUNT],
        }
    }

    fn cell(&self, phase: Phase, level: u8) -> usize {
        let l = usize::from(level.min(self.levels - 1));
        phase.index() * usize::from(self.levels) + l
    }
}

/// One hook call, as a value: what a collector applies and a capture holds.
#[derive(Debug)]
enum Hook {
    BeginRun { scheme: String, levels: u8, burst_cycles: u64 },
    RecordMark,
    EndRun { exec_cycles: u64, bus_cycles: u64 },
    MemRead(Phase, u8),
    MemWrite(Phase, u8),
    Span(Phase),
    Counter(&'static str, u64),
    Gauge(&'static str, f64),
    Level(&'static str, u8, u64),
    Event(&'static str, Phase, u8, u64),
    DumpRing(&'static str),
}

/// A telemetry collector: owns the trace sink, the metrics registry and the
/// ring-buffer event log. Install one per thread with [`install`]; engines
/// and the DRAM model report through the free-function hooks in this module.
pub struct Collector {
    out: Box<dyn Write + Send>,
    registry: Registry,
    ring: RingLog,
    run: Option<RunState>,
    window_every: u64,
    write_error: bool,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("run", &self.run)
            .field("window_every", &self.window_every)
            .finish_non_exhaustive()
    }
}

impl Collector {
    /// Creates a collector writing JSONL to `out`.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        Collector {
            out,
            registry: Registry::new(),
            ring: RingLog::default(),
            run: None,
            window_every: DEFAULT_WINDOW_RECORDS,
            write_error: false,
        }
    }

    /// Creates a collector writing to a buffered file at `path`.
    pub fn to_file(path: &std::path::Path) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(io::BufWriter::new(file))))
    }

    /// Creates a collector writing into a shared in-memory buffer (tests and
    /// in-process pipelines).
    pub fn to_shared_buffer() -> (Self, SharedBuffer) {
        let buf = SharedBuffer::default();
        (Self::new(Box::new(buf.clone())), buf)
    }

    /// Sets the windowing interval in trace records (0 disables windows).
    pub fn window_every(mut self, records: u64) -> Self {
        self.window_every = records;
        self
    }

    /// The metrics registry (tests and custom exporters).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Flushes the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Writes pre-rendered JSONL straight to the sink. This is the merge
    /// step of parallel pipelines: each work item records into its own
    /// collector backed by a [`SharedBuffer`], and the session collector
    /// appends the drained buffers in item order, yielding a trace
    /// byte-identical to a sequential run's.
    pub fn append_raw(&mut self, text: &str) {
        if self.write_error || text.is_empty() {
            return;
        }
        if self.out.write_all(text.as_bytes()).is_err() {
            self.write_error = true;
        }
    }

    /// Applies one hook.
    fn apply(&mut self, hook: Hook) {
        match hook {
            Hook::BeginRun { scheme, levels, burst_cycles } => {
                self.begin_run(&scheme, levels, burst_cycles);
            }
            Hook::RecordMark => self.record_mark(),
            Hook::EndRun { exec_cycles, bus_cycles } => self.end_run(exec_cycles, bus_cycles),
            Hook::MemRead(phase, level) => {
                if let Some(run) = &mut self.run {
                    let cell = run.cell(phase, level);
                    run.reads[cell] += 1;
                }
            }
            Hook::MemWrite(phase, level) => {
                if let Some(run) = &mut self.run {
                    let cell = run.cell(phase, level);
                    run.writes[cell] += 1;
                }
            }
            Hook::Span(phase) => {
                if let Some(run) = &mut self.run {
                    run.spans[phase.index()] += 1;
                }
            }
            Hook::Counter(name, amount) => self.registry.counter_add(name, amount),
            Hook::Gauge(name, value) => self.registry.gauge(name, value),
            Hook::Level(name, level, amount) => self.registry.observe_level(name, level, amount),
            Hook::Event(kind, phase, level, value) => self.ring.push(kind, phase, level, value),
            Hook::DumpRing(reason) => self.dump_ring(reason),
        }
    }

    fn emit(&mut self, line: String) {
        if self.write_error {
            return;
        }
        if writeln!(self.out, "{line}").is_err() {
            // Telemetry must never take a run down: drop output, remember
            // the failure, keep counting.
            self.write_error = true;
        }
    }

    fn begin_run(&mut self, scheme: &str, levels: u8, burst_cycles: u64) {
        self.registry.begin_run();
        self.run = Some(RunState::new(levels));
        let line = LineBuilder::new("run")
            .str("scheme", scheme)
            .num("levels", u64::from(levels))
            .num("burst", burst_cycles)
            .finish();
        self.emit(line);
    }

    fn record_mark(&mut self) {
        let Some(run) = &mut self.run else { return };
        run.records += 1;
        if self.window_every > 0 && run.records % self.window_every == 0 {
            let record = run.records;
            self.emit_window(record);
        }
    }

    fn emit_window(&mut self, record: u64) {
        let (counters, gauges) = self.registry.window_snapshot();
        if counters.is_empty() && gauges.is_empty() {
            return;
        }
        let mut b = LineBuilder::new("win").num("record", record);
        for (name, delta) in counters {
            b = b.num(&format!("c:{name}"), delta);
        }
        for (name, g) in gauges {
            b = b
                .float(&format!("g:{name}:min"), g.min().unwrap_or(0.0))
                .float(&format!("g:{name}:avg"), g.avg().unwrap_or(0.0))
                .float(&format!("g:{name}:max"), g.max().unwrap_or(0.0))
                .num(&format!("g:{name}:n"), g.count());
        }
        let line = b.finish();
        self.emit(line);
    }

    fn end_run(&mut self, exec_cycles: u64, bus_cycles: u64) {
        let Some(run) = self.run.take() else { return };
        for phase in Phase::ALL {
            for level in 0..run.levels {
                let c = run.cell(phase, level);
                let (r, w) = (run.reads[c], run.writes[c]);
                if r == 0 && w == 0 {
                    continue;
                }
                let line = LineBuilder::new("counts")
                    .str("phase", phase.name())
                    .num("level", u64::from(level))
                    .num("reads", r)
                    .num("writes", w)
                    .finish();
                self.emit(line);
            }
            if run.spans[phase.index()] > 0 {
                let line = LineBuilder::new("spans")
                    .str("phase", phase.name())
                    .num("count", run.spans[phase.index()])
                    .finish();
                self.emit(line);
            }
        }
        for (name, delta) in self.registry.run_counter_deltas() {
            let line = LineBuilder::new("ctr").str("name", name).num("value", delta).finish();
            self.emit(line);
        }
        for hist in self.registry.run_hist_deltas() {
            for (level, v) in hist.bins().iter().enumerate() {
                if *v > 0 {
                    let line = LineBuilder::new("histbin")
                        .str("name", hist.name())
                        .num("level", level as u64)
                        .num("value", *v)
                        .finish();
                    self.emit(line);
                }
            }
        }
        let line = LineBuilder::new("sum")
            .num("records", run.records)
            .num("exec", exec_cycles)
            .num("bus", bus_cycles)
            .finish();
        self.emit(line);
        let _ = self.flush();
    }

    fn dump_ring(&mut self, reason: &'static str) {
        if self.ring.is_empty() {
            return;
        }
        let header = LineBuilder::new("ringdump")
            .str("reason", reason)
            .num("held", self.ring.len() as u64)
            .num("pushed", self.ring.pushed())
            .finish();
        self.emit(header);
        let lines: Vec<String> = self
            .ring
            .events()
            .map(|e| {
                LineBuilder::new("ev")
                    .num("seq", e.seq)
                    .str("kind", e.kind)
                    .str("phase", e.phase.name())
                    .num("level", u64::from(e.level))
                    .num("value", e.value)
                    .finish()
            })
            .collect();
        for line in lines {
            self.emit(line);
        }
        let _ = self.flush();
    }
}

/// A cloneable in-memory sink; [`contents`](SharedBuffer::contents) returns
/// everything written so far.
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// The bytes written so far, as UTF-8 (lossy).
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("buffer lock")).into_owned()
    }

    /// Removes and returns everything written so far, leaving the buffer
    /// empty. Parallel pipelines give each work item its own collector and
    /// buffer, then drain the buffers in item order into one output stream —
    /// the result is byte-identical to a sequential run's trace.
    pub fn take(&self) -> String {
        let bytes = std::mem::take(&mut *self.0.lock().expect("buffer lock"));
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Hooks fired on one thread and held for another: work handed to a
/// helper thread [`capture`]s its hooks, and the thread whose collector they
/// belong to [`replay`](Self::replay)s them where that work's results rejoin
/// its own. A replayed hook reaches whatever this thread has installed, as
/// if fired here.
#[derive(Debug, Default)]
pub struct Captured {
    hooks: VecDeque<Hook>,
}

impl Captured {
    /// Replays one record's hooks: the front one, then every hook up to the
    /// next [`record_mark`].
    pub fn replay_record(&mut self) {
        let next_mark = self.hooks.iter().skip(1).position(|h| matches!(h, Hook::RecordMark));
        let end = next_mark.map_or(self.hooks.len(), |i| i + 1);
        self.hooks.drain(..end).for_each(deliver);
    }

    /// Replays every hook held, in the order they fired.
    pub fn replay(&mut self) {
        self.hooks.drain(..).for_each(deliver);
    }
}

/// Where a thread's hooks go.
#[derive(Debug)]
enum Target {
    Collector(Box<Collector>),
    Capture(Captured),
}

impl Target {
    fn into_collector(self) -> Option<Collector> {
        match self {
            Target::Collector(c) => Some(*c),
            Target::Capture(_) => None,
        }
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static ACTIVE: RefCell<Option<Target>> = const { RefCell::new(None) };
}

/// Whether a collector or a capture is installed on this thread. All hooks
/// are no-ops when this is `false`; checking it is their only cost.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Installs `collector` on this thread, replacing (and returning) any
/// previous one.
pub fn install(collector: Collector) -> Option<Collector> {
    let prev = ACTIVE.with(|a| a.borrow_mut().replace(Target::Collector(Box::new(collector))));
    ENABLED.with(|e| e.set(true));
    prev.and_then(Target::into_collector)
}

/// Removes this thread's collector, if any. The caller should
/// [`flush`](Collector::flush) it.
pub fn uninstall() -> Option<Collector> {
    ENABLED.with(|e| e.set(false));
    ACTIVE.with(|a| a.borrow_mut().take()).and_then(Target::into_collector)
}

/// Runs `f`. With `into`, every hook `f` fires on this thread is appended
/// there instead of reaching what this thread has installed, which is
/// restored afterwards; without, hooks behave as usual.
pub fn capture<R>(into: Option<&mut Captured>, f: impl FnOnce() -> R) -> R {
    let Some(into) = into else { return f() };
    let outer = ACTIVE.with(|a| a.replace(Some(Target::Capture(std::mem::take(into)))));
    let was_enabled = ENABLED.with(|e| e.replace(true));
    let out = f();
    if let Some(Target::Capture(captured)) = ACTIVE.with(|a| a.replace(outer)) {
        *into = captured;
    }
    ENABLED.with(|e| e.set(was_enabled));
    out
}

/// Installs a collector writing to `path` and returns a guard that flushes
/// and uninstalls it when dropped.
///
/// # Errors
///
/// Propagates file-creation errors.
pub fn install_to_path(path: &std::path::Path) -> io::Result<TelemetryGuard> {
    install(Collector::to_file(path)?);
    Ok(TelemetryGuard { _priv: () })
}

/// RAII guard returned by [`install_to_path`]: flushes and removes the
/// thread's collector on drop.
#[derive(Debug)]
pub struct TelemetryGuard {
    _priv: (),
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        if let Some(mut c) = uninstall() {
            let _ = c.flush();
        }
    }
}

/// Fires the hook `make` builds. `make` runs only while something is
/// installed.
#[inline]
fn hook(make: impl FnOnce() -> Hook) {
    if enabled() {
        deliver(make());
    }
}

/// Applies `hook` to this thread's collector, or appends it to its capture.
/// Cold: untraced runs never get here, so hot callers keep it out of line.
#[cold]
fn deliver(hook: Hook) {
    ACTIVE.with(|a| {
        // try_borrow_mut: a hook fired re-entrantly from inside the
        // collector (e.g. by the sink) must be dropped, not panic.
        if let Ok(mut active) = a.try_borrow_mut() {
            match active.as_mut() {
                Some(Target::Collector(c)) => c.apply(hook),
                Some(Target::Capture(c)) => c.hooks.push_back(hook),
                None => {}
            }
        }
    });
}

/// Marks the start of a measured run: resets the traffic matrix, snapshots
/// the registry, and emits the run header. Traffic reported while no run is
/// active (e.g. warm-up) is not attributed.
pub fn begin_run(scheme: &str, levels: u8, burst_cycles: u64) {
    hook(|| Hook::BeginRun { scheme: scheme.to_owned(), levels, burst_cycles });
}

/// Marks one trace record processed; every `window_every` records the
/// registry's window snapshot is exported.
pub fn record_mark() {
    hook(|| Hook::RecordMark);
}

/// Ends the measured run, emitting per-(phase, level) counts, span counts,
/// run counter/histogram deltas and the run summary.
pub fn end_run(exec_cycles: u64, bus_cycles: u64) {
    hook(|| Hook::EndRun { exec_cycles, bus_cycles });
}

/// Records one off-chip read issued by `phase` at tree `level`.
#[inline]
pub fn mem_read(phase: Phase, level: u8) {
    hook(|| Hook::MemRead(phase, level));
}

/// Records one off-chip write issued by `phase` at tree `level`.
#[inline]
pub fn mem_write(phase: Phase, level: u8) {
    hook(|| Hook::MemWrite(phase, level));
}

/// Records one entry into a `phase` span (span occurrences per run).
#[inline]
pub fn span(phase: Phase) {
    hook(|| Hook::Span(phase));
}

/// Adds `amount` to the registry counter `name`.
#[inline]
pub fn counter_add(name: &'static str, amount: u64) {
    hook(|| Hook::Counter(name, amount));
}

/// Records one observation of gauge `name` for the current window.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    hook(|| Hook::Gauge(name, value));
}

/// Adds `amount` to bin `level` of per-level histogram `name`.
#[inline]
pub fn observe_level(name: &'static str, level: u8, amount: u64) {
    hook(|| Hook::Level(name, level, amount));
}

/// Appends an event to the bounded ring log.
#[inline]
pub fn event(kind: &'static str, phase: Phase, level: u8, value: u64) {
    hook(|| Hook::Event(kind, phase, level, value));
}

/// Dumps the ring log to the trace (error paths call this before
/// propagating a failure).
pub fn dump_ring(reason: &'static str) {
    hook(|| Hook::DumpRing(reason));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_are_noops_without_collector() {
        assert!(!enabled());
        // Must not panic or allocate state.
        mem_read(Phase::ReadPath, 0);
        counter_add("x", 1);
        gauge("g", 1.0);
        event("e", Phase::Metadata, 0, 0);
        dump_ring("nothing");
        record_mark();
        end_run(0, 0);
    }

    #[test]
    fn full_cycle_emits_expected_lines() {
        let (collector, buf) = Collector::to_shared_buffer();
        install(collector.window_every(2));
        begin_run("ab", 4, 16);
        mem_read(Phase::ReadPath, 1);
        mem_read(Phase::ReadPath, 1);
        mem_write(Phase::Metadata, 3);
        span(Phase::DeadqReclaim);
        counter_add("dram.bank_conflicts", 3);
        gauge("dram.queue_depth", 5.0);
        observe_level("deadq.gathered", 2, 7);
        record_mark();
        record_mark(); // window boundary
        event("evict_path", Phase::EvictPath, 0, 42);
        dump_ring("test");
        end_run(1000, 64);
        let mut c = uninstall().expect("installed");
        c.flush().expect("flush");
        let out = buf.contents();
        assert!(out.contains("\"t\":\"run\""), "{out}");
        assert!(out.contains("\"t\":\"win\""), "{out}");
        assert!(out.contains("\"c:dram.bank_conflicts\":3"), "{out}");
        assert!(out.contains("\"t\":\"counts\""), "{out}");
        assert!(out.contains("\"phase\":\"readPath\",\"level\":1,\"reads\":2"), "{out}");
        assert!(out.contains("\"t\":\"spans\""), "{out}");
        assert!(out.contains("\"t\":\"histbin\""), "{out}");
        assert!(out.contains("\"t\":\"ringdump\""), "{out}");
        assert!(out.contains("\"kind\":\"evict_path\""), "{out}");
        assert!(out.contains("\"t\":\"sum\",\"records\":2,\"exec\":1000,\"bus\":64"), "{out}");
    }

    #[test]
    fn append_raw_passes_bytes_through_unchanged() {
        let (collector, buf) = Collector::to_shared_buffer();
        let mut c = collector;
        c.append_raw("{\"t\":\"run\"}\n{\"t\":\"sum\"}\n");
        c.append_raw("");
        c.flush().expect("flush");
        assert_eq!(buf.contents(), "{\"t\":\"run\"}\n{\"t\":\"sum\"}\n");
    }

    #[test]
    fn shared_buffer_take_drains_across_threads() {
        let buf = SharedBuffer::default();
        let mut writer = buf.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                use std::io::Write;
                writeln!(writer, "from worker").unwrap();
            });
        });
        assert_eq!(buf.take(), "from worker\n");
        assert_eq!(buf.take(), "", "take drains the buffer");
        assert_eq!(buf.contents(), "");
    }

    /// Hooks covering every kind, two records of them.
    fn fire_two_records() {
        begin_run("ab", 4, 16);
        record_mark();
        mem_read(Phase::ReadPath, 1);
        mem_write(Phase::Metadata, 3);
        span(Phase::EvictPath);
        counter_add("dram.bank_conflicts", 3);
        gauge("dram.queue_depth", 5.0);
        record_mark();
        observe_level("deadq.gathered", 2, 7);
        event("evict_path", Phase::EvictPath, 0, 42);
        dump_ring("test");
        end_run(1000, 64);
    }

    #[test]
    fn hooks_captured_on_another_thread_replay_as_if_fired_here() {
        let (collector, direct) = Collector::to_shared_buffer();
        install(collector.window_every(1));
        fire_two_records();
        uninstall();

        let mut captured = Captured::default();
        std::thread::scope(|s| {
            s.spawn(|| capture(Some(&mut captured), fire_two_records));
        });
        assert!(!enabled(), "the capture stayed on its thread");
        let (collector, replayed) = Collector::to_shared_buffer();
        install(collector.window_every(1));
        captured.replay();
        uninstall();
        assert!(captured.hooks.is_empty());
        assert_eq!(direct.contents(), replayed.contents());
    }

    #[test]
    fn a_record_replays_up_to_the_next_mark() {
        let mut captured = Captured::default();
        capture(Some(&mut captured), || {
            counter_add("before", 1);
            record_mark();
            counter_add("first", 1);
            record_mark();
            counter_add("second", 1);
        });
        // Each call replays up to, not including, the next mark.
        for held in [4, 2, 0] {
            captured.replay_record();
            assert_eq!(captured.hooks.len(), held);
        }
    }

    #[test]
    fn a_capture_restores_what_was_installed() {
        let (collector, buf) = Collector::to_shared_buffer();
        install(collector);
        begin_run("ring", 2, 16);
        let mut captured = Captured::default();
        let out = capture(Some(&mut captured), || {
            mem_read(Phase::ReadPath, 0);
            7
        });
        assert_eq!(out, 7);
        assert!(!captured.hooks.is_empty());
        capture(None, || mem_read(Phase::ReadPath, 1));
        end_run(1, 0);
        uninstall();
        let out = buf.contents();
        assert!(!out.contains("\"level\":0,"), "a captured hook reached the collector: {out}");
        assert!(out.contains("\"level\":1,\"reads\":1"), "{out}");
    }

    #[test]
    fn traffic_outside_a_run_is_dropped() {
        let (collector, buf) = Collector::to_shared_buffer();
        install(collector);
        mem_read(Phase::ReadPath, 0); // warm-up traffic: no run yet
        begin_run("ring", 2, 16);
        end_run(1, 0);
        uninstall();
        let out = buf.contents();
        assert!(!out.contains("\"t\":\"counts\""), "warm-up traffic leaked: {out}");
    }

    #[test]
    fn out_of_range_level_clamps() {
        let (collector, buf) = Collector::to_shared_buffer();
        install(collector);
        begin_run("ring", 2, 16);
        mem_read(Phase::ReadPath, 200);
        end_run(1, 16);
        uninstall();
        assert!(buf.contents().contains("\"level\":1,\"reads\":1"));
    }
}
