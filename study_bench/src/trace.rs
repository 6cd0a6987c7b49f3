//! Outside-in tracing: spans recorded from the benchmark's own files,
//! around the calls into each layer.
//!
//! A study already accepts two public traits — [`Transport`] (through
//! `StudyRuntime::transport` / `Daemon::start`) and [`Dispatcher`]
//! (through `StudyRuntime::runner`) — so decorators around them see every
//! frame and every group job of a live study without touching the
//! program.  Spans stay in memory ([`Tracer`]) and are written once, at
//! exit, as Chrome-trace JSON.  Timed runs never construct any of this.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use melissa_scheduler::{Dispatcher, JobHandle};
use melissa_transport::{
    api::FlushError, BoxReceiver, BoxSender, ConnectError, Disconnected, Frame, KillSwitch,
    LinkStats, LinkStatsSnapshot, Receiver, RecvTimeoutError, SendTimeoutError, Sender, Transport,
    TryRecvError,
};

/// One recorded interval.  `id` is the span's 1-based position in the
/// tracer; `parent` is the id of the span that caused it (0 = none).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Simulation-group id the span belongs to (−1 = none): spans of one
    /// group job share it.
    pub group: i64,
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What the current thread is working for: the enclosing span and group.
#[derive(Clone, Copy)]
struct Ctx {
    parent: u32,
    group: i64,
}

thread_local! {
    static CTX: Cell<Ctx> = const { Cell::new(Ctx { parent: 0, group: -1 }) };
    static TID: Cell<u32> = const { Cell::new(0) };
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

fn tid() -> u32 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Deepest receive-queue depth the histogram resolves.
const MAX_DEPTH: usize = 256;

/// In-memory span store plus the counts taken at the same boundaries.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// Data frames and their bytes seen by `send`/`send_timeout`.
    data_frames: AtomicU64,
    data_bytes: AtomicU64,
    /// Receive-queue depth right after each data frame was popped.
    depth_hist: Vec<AtomicU64>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            data_frames: AtomicU64::new(0),
            data_bytes: AtomicU64::new(0),
            depth_hist: (0..=MAX_DEPTH).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> u32 {
        let mut spans = self.spans.lock().expect("no tracer user panics mid-push");
        spans.push(span);
        spans.len() as u32
    }

    /// Records a finished span from `start_ns` to now under the current
    /// thread's context.
    pub fn leaf(&self, name: &'static str, start_ns: u64) {
        let ctx = CTX.with(Cell::get);
        self.push(Span {
            name,
            start_ns,
            end_ns: self.now_ns(),
            parent: ctx.parent,
            group: ctx.group,
            tid: tid(),
        });
    }

    /// Times `f` as a leaf span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = self.now_ns();
        let out = f();
        self.leaf(name, t0);
        out
    }

    /// Opens a span that will have children: later spans on this thread
    /// name it as their parent until [`exit`](Self::exit).
    pub fn enter(&self, name: &'static str) -> u32 {
        let ctx = CTX.with(Cell::get);
        let now = self.now_ns();
        let id = self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: ctx.parent,
            group: ctx.group,
            tid: tid(),
        });
        CTX.with(|c| c.set(Ctx { parent: id, ..ctx }));
        id
    }

    /// Closes a span opened by [`enter`](Self::enter) on this thread,
    /// stamping it with the group the thread learned meanwhile, and
    /// restores the thread's context to the span's own parent.
    pub fn exit(&self, id: u32) {
        let now = self.now_ns();
        let group = CTX.with(Cell::get).group;
        let mut spans = self.spans.lock().expect("no tracer user panics mid-push");
        let span = &mut spans[id as usize - 1];
        span.end_ns = now;
        span.group = group;
        let parent = span.parent;
        drop(spans);
        CTX.with(|c| c.set(Ctx { parent, group: -1 }));
    }

    fn set_group(&self, group: i64) {
        CTX.with(|c| c.set(Ctx { group, ..c.get() }));
    }

    fn count_data_frame(&self, bytes: usize) {
        self.data_frames.fetch_add(1, Ordering::Relaxed);
        self.data_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn sample_depth(&self, depth: usize) {
        self.depth_hist[depth.min(MAX_DEPTH)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn data_frames(&self) -> u64 {
        self.data_frames.load(Ordering::Relaxed)
    }

    pub fn data_bytes(&self) -> u64 {
        self.data_bytes.load(Ordering::Relaxed)
    }

    /// Nearest-rank percentile of the sampled receive-queue depths.
    pub fn depth_percentile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .depth_hist
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((total - 1) as f64 * q).round() as u64;
        let mut seen = 0;
        for (depth, &n) in counts.iter().enumerate() {
            seen += n;
            if seen > rank {
                return depth as f64;
            }
        }
        MAX_DEPTH as f64
    }

    /// Takes everything recorded so far out of the tracer.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no tracer user panics mid-push"))
    }
}

// ---------------------------------------------------------------------
// Span arithmetic
// ---------------------------------------------------------------------

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of the interval the span's children cover.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).  Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Durations (ns) of every span called `name`.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Share of their own lifetime that the threads calling `name` spent
/// *outside* it: for `transport.recv` on the server's data endpoints
/// that is the share of time the server workers were busy ingesting.
/// A thread's lifetime runs from its first such span to its last.
pub fn busy_fraction_outside(spans: &[Span], name: &str) -> f64 {
    let mut per_tid: BTreeMap<u32, (u64, u64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        let e = per_tid.entry(s.tid).or_insert((s.start_ns, s.end_ns, 0));
        e.0 = e.0.min(s.start_ns);
        e.1 = e.1.max(s.end_ns);
        e.2 += s.dur_ns();
    }
    let life: u64 = per_tid.values().map(|&(a, b, _)| b - a).sum();
    let inside: u64 = per_tid.values().map(|&(_, _, w)| w).sum();
    if life == 0 {
        0.0
    } else {
        1.0 - inside as f64 / life as f64
    }
}

/// For every group job, how long it waited although a unit of the
/// `units`-wide pool was free: from its submission, or from the moment an
/// earlier job's end freed a unit if that came later, to its start.
/// Waiting for a *busy* pool is the study's own concurrency limit; this
/// is what the runner adds on top (hand-off, thread spawn).
pub fn dispatch_waits_ns(spans: &[Span], units: usize) -> Vec<f64> {
    // A job's `scheduler.queue` span ends where its `group.exec` starts,
    // on the same thread.
    let mut jobs: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == "group.exec")
        .filter_map(|exec| {
            spans
                .iter()
                .filter(|q| {
                    q.name == "scheduler.queue" && q.tid == exec.tid && q.end_ns <= exec.start_ns
                })
                .max_by_key(|q| q.end_ns)
                .map(|q| (q.start_ns, exec.start_ns))
        })
        .collect();
    jobs.sort_unstable_by_key(|&(_, start)| start);
    let mut ends: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "group.exec")
        .map(|s| s.end_ns)
        .collect();
    ends.sort_unstable();
    jobs.iter()
        .enumerate()
        .map(|(i, &(submitted, started))| {
            let freed = if i < units { 0 } else { ends[i - units] };
            started.saturating_sub(submitted.max(freed)) as f64
        })
        .collect()
}

/// The layer a span belongs to: the part of its name before the first
/// dot (`transport.send` → `transport`).
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Writes spans as Chrome-trace JSON ("X" complete events, microseconds),
/// loadable in `chrome://tracing` or Perfetto.
pub fn write_chrome_trace(out: &mut impl Write, spans: &[Span]) -> std::io::Result<()> {
    writeln!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        // Span names are identifiers from this crate: nothing to escape.
        writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"group\":{}}}}}{sep}",
            s.name,
            layer_of(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            i + 1,
            s.parent,
            s.group,
        )?;
    }
    writeln!(out, "]}}")
}

// ---------------------------------------------------------------------
// Dispatcher decorator
// ---------------------------------------------------------------------

/// Spans every group job: `scheduler.queue` from submit to start (ticket
/// wait plus thread spawn), then `group.exec` from start to end.  The
/// transport spans the job makes are children of its `group.exec`.
pub struct TracingDispatcher {
    inner: Arc<dyn Dispatcher>,
    tracer: Arc<Tracer>,
}

impl TracingDispatcher {
    pub fn new(inner: Arc<dyn Dispatcher>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl Dispatcher for TracingDispatcher {
    fn submit_boxed(&self, units: usize, work: Box<dyn FnOnce(&KillSwitch) + Send>) -> JobHandle {
        let tracer = Arc::clone(&self.tracer);
        let submitted = tracer.now_ns();
        self.inner.submit_boxed(
            units,
            Box::new(move |kill| {
                tracer.leaf("scheduler.queue", submitted);
                let id = tracer.enter("group.exec");
                work(kill);
                tracer.exit(id);
            }),
        )
    }

    fn queued_jobs(&self) -> u64 {
        self.inner.queued_jobs()
    }

    fn free_units(&self) -> usize {
        self.inner.free_units()
    }

    fn total_units(&self) -> usize {
        self.inner.total_units()
    }
}

// ---------------------------------------------------------------------
// Transport decorator
// ---------------------------------------------------------------------

/// `…server/<w>`: a server worker's data endpoint, the only endpoints
/// simulation fields travel to.
pub fn is_data_endpoint(name: &str) -> bool {
    let mut parts = name.rsplit('/');
    let worker = parts.next().unwrap_or("");
    !worker.is_empty()
        && worker.bytes().all(|b| b.is_ascii_digit())
        && parts.next() == Some("server")
}

/// `[study<s>/][shard<k>/]group/<g>/<instance>/reply` → the group id,
/// made unique across daemon-hosted studies as `s · 10⁶ + g`.
fn group_of_endpoint(name: &str) -> Option<i64> {
    let parts: Vec<&str> = name.split('/').collect();
    let at = parts.iter().position(|p| *p == "group")?;
    let group: i64 = parts.get(at + 1)?.parse().ok()?;
    let study: i64 = parts
        .first()
        .and_then(|p| p.strip_prefix("study"))
        .and_then(|d| d.parse().ok())
        .unwrap_or(0);
    Some(study * 1_000_000 + group)
}

/// A [`Transport`] that spans `bind`/`connect`/`connect_retry` and hands
/// out senders and receivers that span every call made through them.
#[derive(Debug)]
pub struct TracingTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
}

impl TracingTransport {
    pub fn new(inner: Arc<dyn Transport>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }

    fn wrap_sender(&self, name: &str, inner: BoxSender) -> BoxSender {
        Box::new(TracingSender {
            inner,
            tracer: Arc::clone(&self.tracer),
            data: is_data_endpoint(name),
        })
    }
}

impl Transport for TracingTransport {
    fn bind(&self, name: &str, hwm: usize) -> BoxReceiver {
        // A group job binds its handshake reply endpoint first: that is
        // where its thread learns which group it works for.
        if let Some(group) = group_of_endpoint(name) {
            self.tracer.set_group(group);
        }
        let inner = self
            .tracer
            .span("transport.bind", || self.inner.bind(name, hwm));
        Box::new(TracingReceiver {
            inner,
            tracer: Arc::clone(&self.tracer),
            data: is_data_endpoint(name),
        })
    }

    fn connect(&self, name: &str) -> Result<BoxSender, ConnectError> {
        self.tracer
            .span("transport.connect", || self.inner.connect(name))
            .map(|tx| self.wrap_sender(name, tx))
    }

    fn connect_retry(&self, name: &str, timeout: Duration) -> Result<BoxSender, ConnectError> {
        // One span for the whole rendezvous, not one per poll.
        self.tracer
            .span("transport.connect", || {
                self.inner.connect_retry(name, timeout)
            })
            .map(|tx| self.wrap_sender(name, tx))
    }

    fn unbind(&self, name: &str) {
        self.inner.unbind(name)
    }

    fn bound_names(&self) -> Vec<String> {
        self.inner.bound_names()
    }

    fn link_stats(&self) -> Vec<(String, LinkStatsSnapshot)> {
        self.inner.link_stats()
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn reconnects(&self) -> u64 {
        self.inner.reconnects()
    }
}

#[derive(Debug)]
struct TracingSender {
    inner: BoxSender,
    tracer: Arc<Tracer>,
    data: bool,
}

impl TracingSender {
    fn send_name(&self) -> &'static str {
        if self.data {
            "transport.send"
        } else {
            "transport.ctl_send"
        }
    }
}

impl Sender for TracingSender {
    fn send(&self, frame: Frame) -> Result<(), Disconnected> {
        if self.data {
            self.tracer.count_data_frame(frame.len());
        }
        self.tracer
            .span(self.send_name(), || self.inner.send(frame))
    }

    fn send_timeout(&self, frame: Frame, timeout: Duration) -> Result<(), SendTimeoutError> {
        if self.data {
            self.tracer.count_data_frame(frame.len());
        }
        self.tracer
            .span(self.send_name(), || self.inner.send_timeout(frame, timeout))
    }

    fn flush(&self, timeout: Duration) -> Result<(), FlushError> {
        self.tracer
            .span("transport.flush", || self.inner.flush(timeout))
    }

    fn stats(&self) -> Arc<LinkStats> {
        self.inner.stats()
    }

    fn queued(&self) -> usize {
        self.inner.queued()
    }

    fn clone_box(&self) -> BoxSender {
        Box::new(TracingSender {
            inner: self.inner.clone_box(),
            tracer: Arc::clone(&self.tracer),
            data: self.data,
        })
    }
}

#[derive(Debug)]
struct TracingReceiver {
    inner: BoxReceiver,
    tracer: Arc<Tracer>,
    data: bool,
}

impl TracingReceiver {
    /// Spans one receive call; a popped data frame also samples how many
    /// frames were still queued behind it.
    fn traced<E>(&self, call: impl FnOnce() -> Result<Frame, E>) -> Result<Frame, E> {
        let name = if self.data {
            "transport.recv"
        } else {
            "transport.ctl_recv"
        };
        let out = self.tracer.span(name, call);
        if self.data && out.is_ok() {
            self.tracer.sample_depth(self.inner.len());
        }
        out
    }
}

impl Receiver for TracingReceiver {
    fn recv(&self) -> Result<Frame, Disconnected> {
        self.traced(|| self.inner.recv())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Frame, RecvTimeoutError> {
        self.traced(|| self.inner.recv_timeout(timeout))
    }

    fn try_recv(&self) -> Result<Frame, TryRecvError> {
        self.traced(|| self.inner.try_recv())
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melissa_scheduler::JobRunner;
    use melissa_transport::{make_transport, TransportKind};

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            group: -1,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("group.exec", 0, 100, 0),
            span("transport.send", 10, 30, 1),
            // Overlaps the previous child: the union covers 10..40.
            span("transport.send", 20, 40, 1),
            // Sticks out of the parent: clipped to 90..100.
            span("transport.flush", 90, 120, 1),
            // A grandchild takes nothing from the root.
            span("inner", 12, 18, 2),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["transport.send"],
            NameTotals {
                count: 2,
                total_ns: 40,
                self_ns: 34
            }
        );
        assert_eq!(totals["group.exec"].self_ns, 60);
    }

    #[test]
    fn busy_fraction_is_time_outside_the_named_span() {
        let mut spans = vec![
            span("transport.recv", 0, 10, 0),
            span("transport.recv", 90, 100, 0),
        ];
        assert!((busy_fraction_outside(&spans, "transport.recv") - 0.8).abs() < 1e-12);
        // A second thread that only ever waited halves the busy share.
        let mut idle = span("transport.recv", 0, 100, 0);
        idle.tid = 2;
        spans.push(idle);
        assert!((busy_fraction_outside(&spans, "transport.recv") - 0.4).abs() < 1e-12);
        assert_eq!(busy_fraction_outside(&spans, "missing"), 0.0);
    }

    #[test]
    fn dispatch_wait_excludes_waiting_for_a_busy_pool() {
        let job = |tid: u32, submitted: u64, started: u64, ended: u64| {
            let mut q = span("scheduler.queue", submitted, started, 0);
            let mut e = span("group.exec", started, ended, 0);
            q.tid = tid;
            e.tid = tid;
            [q, e]
        };
        // One unit, three jobs submitted at t = 0: the first starts after
        // 5 (pure dispatch), the second 7 after the first ended at 100,
        // the third 2 after the second ended at 200.
        let spans: Vec<Span> = [job(1, 0, 5, 100), job(2, 0, 107, 200), job(3, 0, 202, 300)]
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(dispatch_waits_ns(&spans, 1), vec![5.0, 7.0, 2.0]);
        // With two units the second job never had to wait for the first.
        assert_eq!(dispatch_waits_ns(&spans, 2), vec![5.0, 107.0, 102.0]);
    }

    #[test]
    fn endpoint_names_are_classified() {
        assert!(is_data_endpoint("server/0"));
        assert!(is_data_endpoint("study3/shard1/server/12"));
        assert!(!is_data_endpoint("server/main"));
        assert!(!is_data_endpoint("launcher"));
        assert!(!is_data_endpoint("group/4/0/reply"));
        assert_eq!(group_of_endpoint("group/4/0/reply"), Some(4));
        assert_eq!(group_of_endpoint("shard1/group/7/2/reply"), Some(7));
        assert_eq!(group_of_endpoint("study3/group/7/0/reply"), Some(3_000_007));
        assert_eq!(group_of_endpoint("server/main"), None);
        assert_eq!(layer_of("transport.send"), "transport");
    }

    #[test]
    fn decorators_record_parented_spans_and_counts() {
        let tracer = Tracer::new();
        let transport: Arc<dyn Transport> = Arc::new(TracingTransport::new(
            make_transport(TransportKind::InProcess),
            Arc::clone(&tracer),
        ));
        let rx = transport.bind("server/0", 8);
        let runner = TracingDispatcher::new(Arc::new(JobRunner::new(1)), Arc::clone(&tracer));
        let t = Arc::clone(&transport);
        runner
            .submit_boxed(
                1,
                Box::new(move |_| {
                    let _reply = t.bind("group/5/0/reply", 1);
                    let tx = t.connect("server/0").expect("bound above");
                    tx.send(Frame::from_static(b"12345678"))
                        .expect("receiver alive");
                    tx.flush(Duration::from_secs(1)).expect("in-process flush");
                }),
            )
            .join();
        assert_eq!(&rx.recv().expect("one frame")[..], b"12345678");

        let spans = tracer.take_spans();
        let exec = spans
            .iter()
            .position(|s| s.name == "group.exec")
            .expect("job span") as u32
            + 1;
        assert_eq!(spans[exec as usize - 1].group, 5);
        for name in ["transport.connect", "transport.send", "transport.flush"] {
            let s = spans.iter().find(|s| s.name == name).expect(name);
            assert_eq!((s.parent, s.group), (exec, 5), "{name}");
        }
        let recv = spans
            .iter()
            .find(|s| s.name == "transport.recv")
            .expect("recv");
        assert_eq!((recv.parent, recv.group), (0, -1));
        assert!(spans.iter().any(|s| s.name == "scheduler.queue"));
        assert_eq!((tracer.data_frames(), tracer.data_bytes()), (1, 8));
        assert_eq!(tracer.depth_percentile(0.9), 0.0);
    }

    #[test]
    fn chrome_trace_is_written() {
        let mut out = Vec::new();
        write_chrome_trace(&mut out, &[span("group.exec", 1_000, 3_500, 0)]).expect("write");
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.starts_with("{\"displayTimeUnit\""));
        assert!(text.contains(
            "{\"name\":\"group.exec\",\"cat\":\"group\",\"ph\":\"X\",\"ts\":1.000,\"dur\":2.500,\
             \"pid\":1,\"tid\":1,\"args\":{\"id\":1,\"parent\":0,\"group\":-1}}"
        ));
        assert!(text.trim_end().ends_with("]}"));
    }
}
