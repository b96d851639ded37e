//! A persistent, structured event journal: the engine's flight recorder.
//!
//! Every lifecycle event of every job — submit, placement, failed
//! attempt, sampled iteration statistics, stagnation-detector edges,
//! completion — is appended as one flat JSONL line with a stable
//! schema (the `"ev"` field discriminates). Lines land in a bounded
//! in-memory ring (oldest evicted first) and, when configured with a
//! path, are also appended to a file so post-mortems survive the
//! process.
//!
//! The journal is write-only telemetry: recording never feeds back into
//! scheduling or solving. Timestamps are wall-clock offsets from engine
//! start, so journal *content* varies run to run — only solve results
//! must stay bit-identical, and those never read the journal.
//!
//! **Anchoring.** `ts_ms` alone cannot align journals from different
//! runs, so a journal configured with an engine-start epoch
//! ([`JournalConfig::epoch_ms`] — injected once at construction, never
//! `SystemTime::now()` on the hot path) emits a leading
//! `{"ev":"meta","epoch_ms":…}` header line; absolute event time is
//! `epoch_ms + ts_ms`. [`journal_epoch_ms`] recovers the anchor from an
//! exported document, and [`replay_timeline`] skips the header.
//!
//! **Sequencing.** Every line (the meta header included) carries an
//! implicit monotone sequence number starting at 0; [`Journal::export_from`]
//! reads the retained suffix from any cursor, which is what the `/events`
//! Server-Sent-Events endpoint uses for `Last-Event-ID` resume.
//!
//! [`replay_timeline`] parses an exported journal back into a
//! `JobTimeline` for one job, reconstructing backend, device, attempts,
//! cache attribution, wall times and the dynamics summary without the
//! live engine.

use std::collections::VecDeque;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;

use crate::dynamics::{DynamicsSummary, IterationStats};
use crate::metrics::json_escape as esc;
use crate::trace::{AttemptSpan, JobTimeline};

/// Default in-memory retention (JSONL lines).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Knobs for the engine-wide event journal.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalConfig {
    /// In-memory ring bound (lines); oldest evicted first.
    pub capacity: usize,
    /// Record every `sample_every`-th iteration event (1 = all; 0 is
    /// treated as 1). Submit/placement/attempt/stagnation/complete
    /// events are never sampled away.
    pub sample_every: u64,
    /// Also append every line to this file (best-effort: an unopenable
    /// path disables persistence and is reported via
    /// [`Journal::file_error`], never a panic).
    pub path: Option<PathBuf>,
    /// Wall-clock anchor (Unix epoch ms) of the journal's `ts_ms = 0`,
    /// injected by the owner at construction — the engine captures it
    /// once at startup, so the hot path never reads the system clock.
    /// When set, the journal's first line is a `{"ev":"meta"}` header
    /// carrying it, and exported documents from different runs become
    /// alignable (`epoch_ms + ts_ms`).
    pub epoch_ms: Option<u64>,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            capacity: DEFAULT_JOURNAL_CAPACITY,
            sample_every: 1,
            path: None,
            epoch_ms: None,
        }
    }
}

impl JournalConfig {
    /// Builder: set the in-memory line bound.
    pub fn capacity(mut self, lines: usize) -> Self {
        self.capacity = lines;
        self
    }

    /// Builder: keep every `stride`-th iteration event.
    pub fn sample_every(mut self, stride: u64) -> Self {
        self.sample_every = stride;
        self
    }

    /// Builder: persist lines to `path` (JSONL, appended).
    pub fn path(mut self, path: impl Into<PathBuf>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// Builder: anchor `ts_ms = 0` at this wall-clock instant (Unix
    /// epoch ms). See [`JournalConfig::epoch_ms`].
    pub fn epoch_ms(mut self, epoch_ms: u64) -> Self {
        self.epoch_ms = Some(epoch_ms);
        self
    }
}

struct JournalInner {
    ring: VecDeque<String>,
    evicted: u64,
    file: Option<std::io::BufWriter<std::fs::File>>,
    file_error: Option<String>,
}

/// The bounded engine-wide JSONL sink. All methods take `&self` (one
/// short mutex hold per event).
pub struct Journal {
    capacity: usize,
    sample_every: u64,
    epoch_ms: Option<u64>,
    inner: Mutex<JournalInner>,
}

impl Journal {
    /// Open a journal. File persistence failures are recorded, not
    /// raised — an engine must not fail to start over telemetry. A
    /// configured epoch emits the `{"ev":"meta"}` header as line 0.
    pub fn new(cfg: JournalConfig) -> Self {
        let (file, file_error) = match &cfg.path {
            None => (None, None),
            Some(p) => match std::fs::OpenOptions::new().create(true).append(true).open(p) {
                Ok(f) => (Some(std::io::BufWriter::new(f)), None),
                Err(e) => (None, Some(format!("{}: {e}", p.display()))),
            },
        };
        let journal = Journal {
            capacity: cfg.capacity.max(1),
            sample_every: cfg.sample_every.max(1),
            epoch_ms: cfg.epoch_ms,
            inner: Mutex::new(JournalInner { ring: VecDeque::new(), evicted: 0, file, file_error }),
        };
        if let Some(epoch) = cfg.epoch_ms {
            journal.push(format!("{{\"ev\":\"meta\",\"epoch_ms\":{epoch},\"schema\":1}}"));
        }
        journal
    }

    /// The iteration sampling stride (≥ 1).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Why file persistence is off, if it failed to start.
    pub fn file_error(&self) -> Option<String> {
        self.inner.lock().expect("journal lock").file_error.clone()
    }

    /// Lines currently retained in memory.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("journal lock").ring.len()
    }

    /// Is the in-memory ring empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lines evicted from the ring so far.
    pub fn evicted(&self) -> u64 {
        self.inner.lock().expect("journal lock").evicted
    }

    /// The wall-clock anchor of `ts_ms = 0`, when configured.
    pub fn epoch_ms(&self) -> Option<u64> {
        self.epoch_ms
    }

    /// The sequence number the *next* recorded line will get. Sequence
    /// numbers are assigned monotonically from 0 (the meta header, when
    /// configured, is line 0) and survive ring eviction: the retained
    /// line at ring index `i` has sequence `evicted + i`.
    pub fn next_seq(&self) -> u64 {
        let inner = self.inner.lock().expect("journal lock");
        inner.evicted + inner.ring.len() as u64
    }

    /// The retained lines as one JSONL document (oldest first, trailing
    /// newline).
    pub fn export(&self) -> String {
        let inner = self.inner.lock().expect("journal lock");
        let mut out = String::new();
        for line in &inner.ring {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// The retained `(sequence, line)` suffix starting at `from_seq`
    /// (inclusive). A cursor older than the ring returns everything
    /// still retained; a cursor at or past [`Journal::next_seq`] returns
    /// nothing. This is the `/events` resume surface: replaying from a
    /// mid-stream cursor yields exactly the journal suffix.
    pub fn export_from(&self, from_seq: u64) -> Vec<(u64, String)> {
        let inner = self.inner.lock().expect("journal lock");
        // Skip the lines before the cursor without cloning them: only the
        // suffix is copied under the lock.
        let skip = from_seq.saturating_sub(inner.evicted).min(inner.ring.len() as u64);
        let first = inner.evicted + skip;
        (first..).zip(inner.ring.range(skip as usize..).cloned()).collect()
    }

    fn push(&self, line: String) {
        let mut inner = self.inner.lock().expect("journal lock");
        if let Some(f) = inner.file.as_mut() {
            let _ = writeln!(f, "{line}");
            let _ = f.flush();
        }
        if inner.ring.len() >= self.capacity {
            inner.ring.pop_front();
            inner.evicted += 1;
        }
        inner.ring.push_back(line);
    }

    /// Record a job submission.
    #[allow(clippy::too_many_arguments)]
    pub fn record_submit(
        &self,
        ts_ms: f64,
        job: u64,
        backend: &str,
        instance: &str,
        n: usize,
        iterations: usize,
        seed: u64,
    ) {
        self.push(format!(
            "{{\"ev\":\"submit\",\"ts_ms\":{},\"job\":{job},\"backend\":\"{}\",\
             \"instance\":\"{}\",\"n\":{n},\"iterations\":{iterations},\"seed\":{seed}}}",
            fmt_ms(ts_ms),
            esc(backend),
            esc(instance),
        ));
    }

    /// Record a submit-time device placement.
    pub fn record_placement(&self, ts_ms: f64, job: u64, device: u32, device_name: &str) {
        self.push(format!(
            "{{\"ev\":\"placement\",\"ts_ms\":{},\"job\":{job},\"device\":{device},\
             \"device_name\":\"{}\"}}",
            fmt_ms(ts_ms),
            esc(device_name),
        ));
    }

    /// Record one failed attempt of a supervised job.
    pub fn record_attempt(
        &self,
        ts_ms: f64,
        job: u64,
        attempt: u32,
        device: Option<u32>,
        error: &str,
    ) {
        self.push(format!(
            "{{\"ev\":\"attempt\",\"ts_ms\":{},\"job\":{job},\"attempt\":{attempt},\
             \"device\":{},\"error\":\"{}\"}}",
            fmt_ms(ts_ms),
            fmt_opt_u32(device),
            esc(error),
        ));
    }

    /// Record a sampled iteration event (the caller applies
    /// [`Journal::sample_every`]; stats fields are omitted when the run
    /// computed none).
    #[allow(clippy::too_many_arguments)]
    pub fn record_iteration(
        &self,
        ts_ms: f64,
        job: u64,
        iteration: u64,
        iter_best: u64,
        best_so_far: u64,
        stats: Option<&IterationStats>,
    ) {
        let dyn_part = match stats {
            None => String::new(),
            Some(s) => format!(
                ",\"mean_len\":{},\"stddev_len\":{},\"improvement\":{},\"entropy\":{},\
                 \"lambda_branching\":{},\"stagnant_iterations\":{},\"stagnant\":{}",
                fmt_f(s.mean_len),
                fmt_f(s.stddev_len),
                s.improvement,
                fmt_f(s.entropy),
                fmt_f(s.lambda_branching),
                s.stagnant_iterations,
                s.stagnant,
            ),
        };
        self.push(format!(
            "{{\"ev\":\"iteration\",\"ts_ms\":{},\"job\":{job},\"iteration\":{iteration},\
             \"iter_best\":{iter_best},\"best_so_far\":{best_so_far}{dyn_part}}}",
            fmt_ms(ts_ms),
        ));
    }

    /// Record the stagnation detector newly firing.
    pub fn record_stagnation(
        &self,
        ts_ms: f64,
        job: u64,
        iteration: u64,
        stagnant_iterations: u64,
        entropy: f64,
    ) {
        self.push(format!(
            "{{\"ev\":\"stagnation\",\"ts_ms\":{},\"job\":{job},\"iteration\":{iteration},\
             \"stagnant_iterations\":{stagnant_iterations},\"entropy\":{}}}",
            fmt_ms(ts_ms),
            fmt_f(entropy),
        ));
    }

    /// Record a job finishing (any outcome).
    #[allow(clippy::too_many_arguments)]
    pub fn record_complete(
        &self,
        ts_ms: f64,
        job: u64,
        outcome: &str,
        backend: &str,
        device: Option<u32>,
        best_len: u64,
        iterations: usize,
        queue_wait_ms: f64,
        solve_wall_ms: f64,
        cache_hit: Option<bool>,
        attempts: u32,
        restarts: u64,
    ) {
        self.push(format!(
            "{{\"ev\":\"complete\",\"ts_ms\":{},\"job\":{job},\"outcome\":\"{}\",\
             \"backend\":\"{}\",\"device\":{},\"best_len\":{best_len},\
             \"iterations\":{iterations},\"queue_wait_ms\":{},\"solve_wall_ms\":{},\
             \"cache_hit\":{},\"attempts\":{attempts},\"restarts\":{restarts}}}",
            fmt_ms(ts_ms),
            esc(outcome),
            esc(backend),
            fmt_opt_u32(device),
            fmt_ms(queue_wait_ms),
            fmt_ms(solve_wall_ms),
            match cache_hit {
                None => "null".to_string(),
                Some(b) => b.to_string(),
            },
        ));
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.capacity)
            .field("sample_every", &self.sample_every)
            .field("retained", &self.len())
            .field("evicted", &self.evicted())
            .finish()
    }
}

fn fmt_ms(v: f64) -> String {
    format!("{v:.3}")
}

fn fmt_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.0".to_string()
    }
}

fn fmt_opt_u32(v: Option<u32>) -> String {
    match v {
        Some(d) => d.to_string(),
        None => "null".to_string(),
    }
}

// --- replay ----------------------------------------------------------------

/// One parsed value of a flat journal line.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl Val {
    fn num(&self) -> Option<f64> {
        match self {
            Val::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse one flat JSON object (`{"k": v, ...}` with string / number /
/// bool / null values — the only shapes the journal emits). Returns
/// `None` on malformed input instead of panicking, so a truncated
/// journal line degrades to a skipped record.
fn parse_flat(line: &str) -> Option<Vec<(String, Val)>> {
    let mut chars = line.trim().chars().peekable();
    if chars.next()? != '{' {
        return None;
    }
    let mut out = Vec::new();
    loop {
        skip_ws(&mut chars);
        match chars.peek()? {
            '}' => {
                chars.next();
                return Some(out);
            }
            ',' => {
                chars.next();
                continue;
            }
            '"' => {}
            _ => return None,
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next()? != ':' {
            return None;
        }
        skip_ws(&mut chars);
        let val = match chars.peek()? {
            '"' => Val::Str(parse_string(&mut chars)?),
            't' => {
                for expect in "true".chars() {
                    if chars.next()? != expect {
                        return None;
                    }
                }
                Val::Bool(true)
            }
            'f' => {
                for expect in "false".chars() {
                    if chars.next()? != expect {
                        return None;
                    }
                }
                Val::Bool(false)
            }
            'n' => {
                for expect in "null".chars() {
                    if chars.next()? != expect {
                        return None;
                    }
                }
                Val::Null
            }
            _ => {
                let mut num = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() || "+-.eE".contains(c) {
                        num.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                Val::Num(num.parse().ok()?)
            }
        };
        out.push((key, val));
    }
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

fn get<'a>(fields: &'a [(String, Val)], key: &str) -> Option<&'a Val> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_num(fields: &[(String, Val)], key: &str) -> Option<f64> {
    get(fields, key).and_then(Val::num)
}

fn get_u64(fields: &[(String, Val)], key: &str) -> Option<u64> {
    get_num(fields, key).map(|v| v as u64)
}

/// The wall-clock anchor of an exported journal: the `epoch_ms` of its
/// `{"ev":"meta"}` header line, when the recording engine configured one
/// (see [`JournalConfig::epoch_ms`]). Absolute event time is
/// `epoch_ms + ts_ms`.
pub fn journal_epoch_ms(jsonl: &str) -> Option<u64> {
    jsonl.lines().find_map(|line| {
        let fields = parse_flat(line)?;
        if get(&fields, "ev").and_then(Val::str) == Some("meta") {
            get_u64(&fields, "epoch_ms")
        } else {
            None
        }
    })
}

/// Rebuild one completed job's [`JobTimeline`] from an exported journal
/// (see [`Journal::export`]). Returns `None` when the journal holds no
/// `complete` event for `job` — an in-flight or evicted job cannot be
/// replayed. A leading `{"ev":"meta"}` header (journals recorded with an
/// epoch anchor — recover it with [`journal_epoch_ms`]) is accepted and
/// skipped. Iteration *phase spans* are not journaled, so the replayed
/// timeline carries wall/queue/cache/attempt/dynamics data but an empty
/// `iterations` list.
pub fn replay_timeline(jsonl: &str, job: u64) -> Option<JobTimeline> {
    let mut backend = String::new();
    let mut device = None;
    let mut queue_wait_ms = 0.0;
    let mut solve_wall_ms = 0.0;
    let mut artifact_cache_hit = None;
    let mut attempts = Vec::new();
    let mut dynamics = DynamicsSummary::new(64);
    let mut completed = false;
    for line in jsonl.lines() {
        let Some(fields) = parse_flat(line) else { continue };
        if get_u64(&fields, "job") != Some(job) {
            continue;
        }
        match get(&fields, "ev").and_then(Val::str) {
            Some("submit") => {
                if let Some(b) = get(&fields, "backend").and_then(Val::str) {
                    backend = b.to_string();
                }
            }
            Some("placement") => device = get_u64(&fields, "device").map(|d| d as u32),
            Some("attempt") => attempts.push(AttemptSpan {
                attempt: get_u64(&fields, "attempt").unwrap_or(0) as u32,
                device: get_u64(&fields, "device").map(|d| d as u32),
                error: get(&fields, "error").and_then(Val::str).unwrap_or("").to_string(),
            }),
            Some("iteration") => {
                let (Some(iteration), Some(best_so_far)) =
                    (get_u64(&fields, "iteration"), get_u64(&fields, "best_so_far"))
                else {
                    continue;
                };
                if let Some(mean_len) = get_num(&fields, "mean_len") {
                    let stats = IterationStats {
                        mean_len,
                        stddev_len: get_num(&fields, "stddev_len").unwrap_or(0.0),
                        improvement: get_u64(&fields, "improvement").unwrap_or(0),
                        entropy: get_num(&fields, "entropy").unwrap_or(0.0),
                        lambda_branching: get_num(&fields, "lambda_branching").unwrap_or(0.0),
                        stagnant_iterations: get_u64(&fields, "stagnant_iterations").unwrap_or(0),
                        stagnant: matches!(get(&fields, "stagnant"), Some(Val::Bool(true))),
                    };
                    dynamics.record(iteration, best_so_far, &stats);
                }
            }
            Some("complete") => {
                completed = true;
                if let Some(b) = get(&fields, "backend").and_then(Val::str) {
                    backend = b.to_string();
                }
                if let Some(d) = get_u64(&fields, "device") {
                    device = Some(d as u32);
                }
                queue_wait_ms = get_num(&fields, "queue_wait_ms").unwrap_or(0.0);
                solve_wall_ms = get_num(&fields, "solve_wall_ms").unwrap_or(0.0);
                artifact_cache_hit = match get(&fields, "cache_hit") {
                    Some(Val::Bool(b)) => Some(*b),
                    _ => None,
                };
            }
            _ => {}
        }
    }
    completed.then(|| JobTimeline {
        job,
        backend,
        device,
        queue_wait_ms,
        placement_ms: 0.0,
        first_event_ms: None,
        solve_wall_ms,
        post_pass_ms: 0.0,
        artifact_cache_hit,
        iterations: Vec::new(),
        dropped_iterations: 0,
        kernels: Vec::new(),
        attempts,
        dynamics: (dynamics.iterations > 0).then_some(dynamics),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_exports_jsonl() {
        let j = Journal::new(JournalConfig::default().capacity(3));
        for job in 0..5u64 {
            j.record_submit(1.0, job, "auto", "inst", 10, 5, job);
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.evicted(), 2);
        let text = j.export();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| parse_flat(l).is_some()), "every line parses");
        assert!(text.contains("\"job\":4"));
        assert!(!text.contains("\"job\":0"), "oldest lines evicted");
    }

    #[test]
    fn epoch_meta_line_anchors_and_replay_skips_it() {
        let j = Journal::new(JournalConfig::default().epoch_ms(1_700_000_000_123));
        assert_eq!(j.epoch_ms(), Some(1_700_000_000_123));
        assert_eq!(j.len(), 1, "meta header is line 0");
        j.record_submit(0.1, 5, "auto", "inst", 8, 2, 0);
        j.record_complete(3.0, 5, "completed", "cpu-seq", None, 42, 2, 0.2, 2.8, Some(false), 1, 0);
        let text = j.export();
        assert!(text.starts_with("{\"ev\":\"meta\",\"epoch_ms\":1700000000123"));
        assert_eq!(journal_epoch_ms(&text), Some(1_700_000_000_123));
        let t = replay_timeline(&text, 5).expect("meta line does not break replay");
        assert_eq!(t.backend, "cpu-seq");
        // No epoch configured → no header, no anchor.
        let bare = Journal::new(JournalConfig::default());
        bare.record_placement(1.0, 1, 0, "g0");
        assert_eq!(bare.epoch_ms(), None);
        assert_eq!(journal_epoch_ms(&bare.export()), None);
    }

    #[test]
    fn sequence_numbers_survive_eviction_and_resume_from_cursor() {
        let j = Journal::new(JournalConfig::default().capacity(4));
        for job in 0..10u64 {
            j.record_submit(job as f64, job, "auto", "inst", 8, 1, job);
        }
        assert_eq!(j.next_seq(), 10);
        assert_eq!(j.evicted(), 6);
        // The full retained suffix: sequences 6..=9.
        let all = j.export_from(0);
        assert_eq!(all.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        // A mid-stream cursor replays exactly the suffix at that cursor.
        let tail = j.export_from(8);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].0, 8);
        assert!(tail[0].1.contains("\"job\":8"), "sequence matches the recorded line");
        assert!(j.export_from(10).is_empty(), "cursor at next_seq yields nothing");
        // export() and export_from(0) agree on content.
        let pairs = j.export_from(0);
        let doc = j.export();
        assert_eq!(
            doc.lines().collect::<Vec<_>>(),
            pairs.iter().map(|(_, l)| l.as_str()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn hostile_strings_round_trip() {
        let j = Journal::new(JournalConfig::default());
        j.record_submit(0.5, 1, "we\"ird\\back", "inst{a}\nline", 4, 1, 0);
        let text = j.export();
        let fields = parse_flat(text.lines().next().unwrap()).expect("line parses");
        assert_eq!(get(&fields, "backend").and_then(Val::str), Some("we\"ird\\back"));
        assert_eq!(get(&fields, "instance").and_then(Val::str), Some("inst{a}\nline"));
    }

    #[test]
    fn file_persistence_appends_lines() {
        let path = std::env::temp_dir().join(format!("aco-journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::new(JournalConfig::default().path(&path));
            assert!(j.file_error().is_none());
            j.record_placement(1.0, 7, 2, "g2");
            j.record_stagnation(2.0, 7, 40, 25, 0.031);
        }
        let text = std::fs::read_to_string(&path).expect("journal file written");
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"ev\":\"stagnation\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unopenable_path_reports_error_and_keeps_recording() {
        let j = Journal::new(JournalConfig::default().path("/nonexistent-dir-aco/journal.jsonl"));
        assert!(j.file_error().is_some());
        j.record_submit(0.0, 1, "b", "i", 2, 1, 0);
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn replay_reconstructs_a_completed_job() {
        let j = Journal::new(JournalConfig::default());
        j.record_submit(0.1, 9, "auto", "inst", 30, 4, 3);
        j.record_placement(0.2, 9, 1, "g1");
        j.record_attempt(0.5, 9, 1, Some(1), "kernel fault: injected");
        let stats = IterationStats {
            mean_len: 120.5,
            stddev_len: 4.25,
            improvement: 10,
            entropy: 0.75,
            lambda_branching: 3.5,
            stagnant_iterations: 0,
            stagnant: false,
        };
        j.record_iteration(1.0, 9, 0, 110, 110, Some(&stats));
        j.record_iteration(1.5, 9, 1, 112, 110, Some(&stats));
        j.record_complete(
            2.0,
            9,
            "completed",
            "gpu-nnlist-atomic",
            Some(1),
            110,
            4,
            0.4,
            1.6,
            Some(true),
            2,
            0,
        );
        // Interleaved other-job noise must not leak in.
        j.record_submit(0.3, 10, "cpu-seq", "other", 30, 4, 4);
        let text = j.export();
        let t = replay_timeline(&text, 9).expect("job 9 completed");
        assert_eq!(t.job, 9);
        assert_eq!(t.backend, "gpu-nnlist-atomic");
        assert_eq!(t.device, Some(1));
        assert!((t.queue_wait_ms - 0.4).abs() < 1e-9);
        assert!((t.solve_wall_ms - 1.6).abs() < 1e-9);
        assert_eq!(t.artifact_cache_hit, Some(true));
        assert_eq!(t.attempts.len(), 1);
        assert_eq!(t.attempts[0].error, "kernel fault: injected");
        let d = t.dynamics.expect("iteration stats journaled");
        assert_eq!(d.iterations, 2);
        assert_eq!(d.final_best, 110);
        assert!((d.final_entropy - 0.75).abs() < 1e-6);
        assert!(replay_timeline(&text, 10).is_none(), "job 10 never completed");
    }
}
