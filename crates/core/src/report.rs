//! Study report: the launcher's accounting of one study run.
//!
//! The paper (Section 4.2.2): "the user gets a clear vision of the actual
//! data that were accumulated to compute the results through the detailed
//! report of failures and restarts the Melissa Server provides."

use std::time::{Duration, Instant};

use melissa_telemetry::{EventKind, StudyEvent};

/// Accounting of one complete study run.
#[derive(Debug, Clone)]
pub struct StudyReport {
    /// Groups in the design.
    pub n_groups: usize,
    /// Parallel server instances the study ran (1 = classic single
    /// server; sharded studies aggregate every per-shard report into this
    /// one: counters summed, convergence signals taken as the max over
    /// shards).
    pub n_shards: usize,
    /// Groups fully integrated by the server.
    pub groups_finished: usize,
    /// Groups given up after exhausting retries.
    pub groups_abandoned: Vec<u64>,
    /// Group job restarts performed.
    pub group_restarts: u32,
    /// Server restarts performed.
    pub server_restarts: u32,
    /// Wall-clock duration of the study, from launch to assembled
    /// results (the study-end reduction included).
    pub wall_time: Duration,
    /// Part of [`wall_time`](Self::wall_time) spent in the steady-flow
    /// pre-run, which every study runs serially before its first group.
    pub prerun_time: Duration,
    /// Part of [`wall_time`](Self::wall_time) spent reducing the shards'
    /// worker states into one state set; zero for a single-server study,
    /// which has nothing to reduce.
    pub reduce_time: Duration,
    /// Data messages ingested by the server.
    pub data_messages: u64,
    /// Data payload bytes ingested by the server — the storage the study
    /// *avoided* writing as intermediate files.
    pub data_bytes: u64,
    /// Replayed messages dropped by discard-on-replay.
    pub replays_discarded: u64,
    /// Frames the server refused to ingest: not decodable, or `Data`
    /// whose role, timestep or cell range is not part of the study.  0
    /// for any study whose clients speak the protocol over sound links.
    pub frames_rejected: u64,
    /// Messaging backend the study ran over (`"in-process"`, `"tcp"`).
    pub transport: String,
    /// Study-level link rollup: frames sent toward the server's data
    /// endpoints (data plus control, every link counted once).
    pub link_messages: u64,
    /// Study-level link rollup: frame bytes sent toward the server's data
    /// endpoints.
    pub link_bytes: u64,
    /// Study-level link rollup: bytes that actually crossed the wire
    /// (after in-frame compression, including framing and retransmits).
    /// Equals [`link_bytes`](Self::link_bytes) on links with no wire
    /// (in-process) or with compression off, so
    /// `link_bytes / link_wire_bytes` is always the compression ratio.
    pub link_wire_bytes: u64,
    /// Sends that hit a full buffer (backpressure events).
    pub blocked_sends: u64,
    /// Total time clients spent blocked on full buffers.
    pub blocked_time: Duration,
    /// Worker checkpoint files written.
    pub checkpoints_written: u64,
    /// Worker checkpoint writes that failed.
    pub checkpoints_failed: u64,
    /// Whether convergence control stopped the study early.
    pub early_stopped: bool,
    /// Final convergence signal (max 95 % CI width).
    pub final_max_ci: f64,
    /// Final quantile-convergence signal: the widest possible next
    /// Robbins–Monro step over all workers/cells (0 when order statistics
    /// are disabled; ∞ when enabled but no data arrived).
    pub final_max_quantile_step: f64,
    /// The tracked quantile probabilities, pairing
    /// [`final_quantile_steps`](Self::final_quantile_steps) (empty when
    /// order statistics are disabled).
    pub quantile_probs: Vec<f64>,
    /// Final per-probability quantile steps (same order as
    /// [`quantile_probs`](Self::quantile_probs)): the convergence state
    /// of each tracked percentile, so a 1 %/99 % study can see which
    /// estimate was slowest.  Empty until every worker reported once.
    pub final_quantile_steps: Vec<f64>,
    /// The study clock origin: every event's `at_nanos` is elapsed time
    /// from here.  Shards of one study share it, so their journals merge
    /// on a common time axis.
    pub origin: Instant,
    /// The shard this report describes (0 for single-server studies;
    /// aggregated sharded reports keep 0 and carry per-shard identity on
    /// each event).
    pub shard: u32,
    /// Chronological failure/restart journal (typed; `Display` renders
    /// it through [`EventKind::render`]).
    pub events: Vec<StudyEvent>,
}

impl StudyReport {
    /// Creates an empty report for a study of `n_groups` groups.
    pub fn new(n_groups: usize) -> Self {
        Self {
            n_groups,
            n_shards: 1,
            groups_finished: 0,
            groups_abandoned: Vec::new(),
            group_restarts: 0,
            server_restarts: 0,
            wall_time: Duration::ZERO,
            prerun_time: Duration::ZERO,
            reduce_time: Duration::ZERO,
            data_messages: 0,
            data_bytes: 0,
            replays_discarded: 0,
            frames_rejected: 0,
            transport: String::new(),
            link_messages: 0,
            link_bytes: 0,
            link_wire_bytes: 0,
            blocked_sends: 0,
            blocked_time: Duration::ZERO,
            checkpoints_written: 0,
            checkpoints_failed: 0,
            early_stopped: false,
            final_max_ci: f64::INFINITY,
            final_max_quantile_step: 0.0,
            quantile_probs: Vec::new(),
            final_quantile_steps: Vec::new(),
            origin: Instant::now(),
            shard: 0,
            events: Vec::new(),
        }
    }

    /// Appends an event to the failure/restart journal, stamped with the
    /// study clock and this report's shard.  Returns a copy so callers
    /// can mirror the stamped event into a live telemetry ring.
    pub fn log(&mut self, kind: impl Into<EventKind>) -> StudyEvent {
        self.log_at(kind, Instant::now())
    }

    /// [`log`](Self::log), stamped at `now` instead of the clock.
    pub(crate) fn log_at(&mut self, kind: impl Into<EventKind>, now: Instant) -> StudyEvent {
        let event = StudyEvent {
            seq: self.events.len() as u64,
            at_nanos: now.saturating_duration_since(self.origin).as_nanos() as u64,
            shard: self.shard,
            kind: kind.into(),
        };
        self.events.push(event.clone());
        event
    }

    /// Data volume in mebibytes.
    pub fn data_mib(&self) -> f64 {
        self.data_bytes as f64 / (1024.0 * 1024.0)
    }
}

impl std::fmt::Display for StudyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "=== Melissa study report ===")?;
        writeln!(
            f,
            "groups            : {}/{} finished",
            self.groups_finished, self.n_groups
        )?;
        if self.n_shards > 1 {
            writeln!(f, "server shards     : {}", self.n_shards)?;
        }
        writeln!(
            f,
            "wall time         : {:.2} s",
            self.wall_time.as_secs_f64()
        )?;
        writeln!(
            f,
            "flow pre-run      : {:.3} s",
            self.prerun_time.as_secs_f64()
        )?;
        if self.n_shards > 1 {
            writeln!(
                f,
                "shard reduction   : {:.3} s",
                self.reduce_time.as_secs_f64()
            )?;
        }
        writeln!(
            f,
            "in transit data   : {:.1} MiB in {} messages (zero intermediate files)",
            self.data_mib(),
            self.data_messages
        )?;
        writeln!(f, "replays discarded : {}", self.replays_discarded)?;
        if self.frames_rejected > 0 {
            writeln!(f, "frames rejected   : {}", self.frames_rejected)?;
        }
        if !self.transport.is_empty() {
            writeln!(
                f,
                "transport         : {} ({} frames, {:.1} MiB on data links)",
                self.transport,
                self.link_messages,
                self.link_bytes as f64 / (1024.0 * 1024.0)
            )?;
            if self.link_wire_bytes != 0 && self.link_wire_bytes != self.link_bytes {
                writeln!(
                    f,
                    "wire              : {:.1} MiB after compression ({:.2}x ratio)",
                    self.link_wire_bytes as f64 / (1024.0 * 1024.0),
                    self.link_bytes as f64 / self.link_wire_bytes as f64
                )?;
            }
        }
        writeln!(
            f,
            "backpressure      : {} blocked sends, {:.3} s total",
            self.blocked_sends,
            self.blocked_time.as_secs_f64()
        )?;
        writeln!(f, "group restarts    : {}", self.group_restarts)?;
        writeln!(f, "server restarts   : {}", self.server_restarts)?;
        writeln!(
            f,
            "checkpoints       : {} ({} failed)",
            self.checkpoints_written, self.checkpoints_failed
        )?;
        if self.final_max_quantile_step > 0.0 && self.final_max_quantile_step.is_finite() {
            writeln!(
                f,
                "quantile conv     : max RM step {:.4} (alongside max CI width {:.4})",
                self.final_max_quantile_step, self.final_max_ci
            )?;
            if !self.final_quantile_steps.is_empty()
                && self.final_quantile_steps.len() == self.quantile_probs.len()
            {
                write!(f, "per-probability   :")?;
                for (p, s) in self.quantile_probs.iter().zip(&self.final_quantile_steps) {
                    write!(f, " q{:02.0}={s:.4}", p * 100.0)?;
                }
                writeln!(f)?;
            }
        }
        if !self.groups_abandoned.is_empty() {
            writeln!(f, "abandoned groups  : {:?}", self.groups_abandoned)?;
        }
        if self.early_stopped {
            writeln!(
                f,
                "early stop        : yes (max CI width {:.4})",
                self.final_max_ci
            )?;
        }
        if !self.events.is_empty() {
            writeln!(f, "--- failure/restart log ---")?;
            for e in &self.events {
                write!(f, "  [+{:.3}s] ", e.at_nanos as f64 / 1e9)?;
                if self.n_shards > 1 {
                    write!(f, "[shard {}] ", e.shard)?;
                }
                writeln!(f, "{}", e.kind.render())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_key_lines() {
        let mut r = StudyReport::new(10);
        r.groups_finished = 9;
        r.groups_abandoned = vec![7];
        r.transport = "tcp".into();
        r.link_messages = 1234;
        r.data_bytes = 3 * 1024 * 1024;
        r.final_max_ci = 0.21;
        r.final_max_quantile_step = 0.0375;
        r.quantile_probs = vec![0.01, 0.5, 0.99];
        r.final_quantile_steps = vec![0.0371, 0.0188, 0.0371];
        r.log(EventKind::GroupRestarted {
            group: 7,
            instance: 1,
        });
        let text = r.to_string();
        assert!(text.contains("9/10 finished"));
        assert!(text.contains("3.0 MiB"));
        assert!(text.contains("abandoned groups  : [7]"));
        assert!(text.contains("restarting group 7"));
        assert!(text.contains("max RM step 0.0375"));
        assert!(text.contains("q01=0.0371"), "text: {text}");
        assert!(text.contains("q50=0.0188"), "text: {text}");
        assert!(text.contains("transport         : tcp (1234 frames"));
        assert!(text.contains("flow pre-run      : 0.000 s"), "text: {text}");
    }

    #[test]
    fn log_stamps_sequence_shard_and_clock() {
        let mut r = StudyReport::new(4);
        r.shard = 2;
        let first = r.log("free text");
        let second = r.log(EventKind::ServerRestarted);
        assert_eq!(first.seq, 0);
        assert_eq!(second.seq, 1);
        assert_eq!(second.shard, 2);
        assert!(
            second.at_nanos >= first.at_nanos,
            "study clock is monotonic"
        );
        assert_eq!(first.shard, 2);
        assert_eq!(r.events, vec![first, second]);
        // Sharded reports prefix each journal line with its shard.
        r.n_shards = 3;
        assert!(r.to_string().contains("[shard 2] free text"));
    }

    #[test]
    fn quantile_line_is_omitted_when_disabled() {
        let r = StudyReport::new(1);
        assert!(!r.to_string().contains("quantile conv"));
    }

    #[test]
    fn shard_line_appears_only_for_sharded_studies() {
        let mut r = StudyReport::new(4);
        assert!(!r.to_string().contains("server shards"));
        assert!(!r.to_string().contains("shard reduction"));
        r.n_shards = 4;
        r.reduce_time = Duration::from_millis(1250);
        assert!(r.to_string().contains("server shards     : 4"));
        assert!(r.to_string().contains("shard reduction   : 1.250 s"));
    }
}
