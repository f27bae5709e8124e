//! In-memory spans, written as a Chrome-trace (`chrome://tracing`,
//! Perfetto) JSON file when the run ends.
//!
//! Spans are recorded from this package's own files, around calls into
//! each layer's public functions; spans *inside* the program are a later
//! change (ROADMAP item 1). Two clocks appear as two trace "processes":
//!
//! * pid 1, host clock: set-up calls, timed sections and probes, nested
//!   by `parent`. `ts`/`dur` are host microseconds since the run began;
//!   `args.sim_start_ns`/`sim_end_ns` give the simulated clock (0 when
//!   the span has none).
//! * pid 2, simulated clock: one span per `BlockDevice::submit`, `ts`/
//!   `dur` in simulated microseconds, one `tid` per client and in-flight
//!   slot, `args.req` the request id, `args.host_*_ns` the host clock.
//!
//! A span's self time is its duration minus the part its children cover.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug)]
pub struct Span {
    /// Span id (1-based; 0 means "no span").
    pub id: u32,
    /// Enclosing span, 0 for a root.
    pub parent: u32,
    /// What was called.
    pub name: &'static str,
    /// Host clock, ns since the tracer was created.
    pub host_start_ns: u64,
    /// Host clock at the end.
    pub host_end_ns: u64,
    /// Simulated clock at the start (0 when not applicable).
    pub sim_start_ns: u64,
    /// Simulated clock at the end.
    pub sim_end_ns: u64,
    /// I/O spans only: `(request id, client, in-flight slot)`.
    pub io: Option<(u64, u32, u32)>,
}

/// Span recorder. Single-threaded, like the simulator.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u32>>,
    next_req: Cell<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder; the host clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            next_req: Cell::new(1),
        }
    }

    /// Host nanoseconds since the recorder was created.
    pub fn host_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The innermost open span (0 if none).
    pub fn current(&self) -> u32 {
        self.stack.borrow().last().copied().unwrap_or(0)
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. `sim_ns` reads the simulated clock (return 0 if there is
    /// none in scope).
    pub fn scope<T>(
        &self,
        name: &'static str,
        sim_ns: &dyn Fn() -> u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len() as u32 + 1;
            spans.push(Span {
                id,
                parent: self.current(),
                name,
                host_start_ns: self.host_ns(),
                host_end_ns: 0,
                sim_start_ns: sim_ns(),
                sim_end_ns: 0,
                io: None,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        let s = &mut spans[id as usize - 1];
        s.host_end_ns = self.host_ns();
        s.sim_end_ns = sim_ns();
        out
    }

    /// A fresh request id for an I/O span.
    pub fn next_request(&self) -> u64 {
        let r = self.next_req.get();
        self.next_req.set(r + 1);
        r
    }

    /// Record a finished I/O span under `parent`.
    #[allow(clippy::too_many_arguments)]
    pub fn io_span(
        &self,
        parent: u32,
        name: &'static str,
        req: u64,
        client: u32,
        slot: u32,
        host: (u64, u64),
        sim: (u64, u64),
    ) {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len() as u32 + 1;
        spans.push(Span {
            id,
            parent,
            name,
            host_start_ns: host.0,
            host_end_ns: host.1,
            sim_start_ns: sim.0,
            sim_end_ns: sim.1,
            io: Some((req, client, slot)),
        });
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write `bench_trace.json` into `dir` (created if missing).
    pub fn write(&self, dir: &Path, workload: &str) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("bench_trace.json");
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "{{\"displayTimeUnit\": \"ns\", \"otherData\": {{\"workload\": \"{workload}\"}}, \"traceEvents\": [")?;
        writeln!(out, "{{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", \"args\": {{\"name\": \"host clock: set-up, sections, probes\"}}}},")?;
        write!(out, "{{\"ph\": \"M\", \"pid\": 2, \"name\": \"process_name\", \"args\": {{\"name\": \"simulated clock: one lane per client and in-flight slot\"}}}}")?;
        let mut line = String::new();
        for s in self.spans.borrow().iter() {
            line.clear();
            let us = |ns: u64| ns as f64 / 1_000.0;
            match s.io {
                None => write!(
                    line,
                    ",\n{{\"name\": \"{}\", \"cat\": \"host\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {}, \"dur\": {}, \
                     \"args\": {{\"id\": {}, \"parent\": {}, \"sim_start_ns\": {}, \"sim_end_ns\": {}}}}}",
                    s.name,
                    us(s.host_start_ns),
                    us(s.host_end_ns - s.host_start_ns),
                    s.id,
                    s.parent,
                    s.sim_start_ns,
                    s.sim_end_ns
                ),
                Some((req, client, slot)) => write!(
                    line,
                    ",\n{{\"name\": \"{}\", \"cat\": \"io\", \"ph\": \"X\", \"pid\": 2, \"tid\": {}, \"ts\": {}, \"dur\": {}, \
                     \"args\": {{\"id\": {}, \"parent\": {}, \"req\": {}, \"client\": {}, \"host_start_ns\": {}, \"host_end_ns\": {}}}}}",
                    s.name,
                    client * 1_000 + slot,
                    us(s.sim_start_ns),
                    us(s.sim_end_ns - s.sim_start_ns),
                    s.id,
                    s.parent,
                    req,
                    client,
                    s.host_start_ns,
                    s.host_end_ns
                ),
            }
            .expect("writing to a String cannot fail");
            out.write_all(line.as_bytes())?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()?;
        Ok(path)
    }
}

/// [`Tracer::scope`] when tracing, plain `f()` when not.
pub fn scoped<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    sim_ns: &dyn Fn() -> u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.scope(name, sim_ns, f),
        None => f(),
    }
}
