//! Span recording for the traced run.
//!
//! Every timed region of the benchmark goes through the [`Spans`] trait.
//! Untraced runs use [`NoSpans`], whose methods are empty and inline away,
//! so the code measured for the end-to-end metrics contains no span code.
//! Traced runs use [`Recorder`], which keeps spans in memory and writes
//! them at exit as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use harness::Json;

/// Identifier of an open span (index into the recorder's span list).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Sink for spans at each layer boundary the benchmark crosses.
pub trait Spans {
    /// Open a span as a child of the innermost open span.
    fn open(&mut self, name: &str, layer: &'static str) -> SpanId;
    /// Close a span opened with [`Spans::open`].
    fn close(&mut self, id: SpanId);
    /// Record an already finished span under `parent`, or under the
    /// innermost open span when `parent` is `None`.
    fn done(
        &mut self,
        parent: Option<SpanId>,
        name: &str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId;
    /// Tag the spans opened from now on with a pass number.
    fn set_pass(&mut self, pass: u32);
}

/// Span sink of untraced runs: records nothing.
pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn open(&mut self, _: &str, _: &'static str) -> SpanId {
        SpanId(0)
    }
    #[inline(always)]
    fn close(&mut self, _: SpanId) {}
    #[inline(always)]
    fn done(
        &mut self,
        _: Option<SpanId>,
        _: &str,
        _: &'static str,
        _: Instant,
        _: Instant,
    ) -> SpanId {
        SpanId(0)
    }
    #[inline(always)]
    fn set_pass(&mut self, _: u32) {}
}

struct Span {
    name: String,
    layer: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    pass: u32,
}

/// In-memory span recorder of the traced run.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

impl Recorder {
    /// Empty recorder; span times are relative to `origin`.
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    /// Self time of every layer: each span's duration minus the part its
    /// direct children cover, summed per layer (milliseconds).
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let own = (s.end - s.start).saturating_sub(c);
            *out.entry(s.layer).or_insert(0.0) += own.as_secs_f64() * 1e3;
        }
        out
    }

    /// Chrome trace-event document (complete events, microseconds).
    pub fn to_chrome_json(&self, other: Json) -> Json {
        let events = self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("name", Json::from(s.name.as_str())),
                ("cat", Json::from(s.layer)),
                ("ph", Json::from("X")),
                ("ts", Json::Num(s.start.as_secs_f64() * 1e6)),
                ("dur", Json::Num((s.end - s.start).as_secs_f64() * 1e6)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(1u64)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::from(id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                        ),
                        ("pass", Json::from(s.pass as u64)),
                    ]),
                ),
            ])
        });
        Json::obj([
            ("traceEvents", Json::arr(events)),
            ("displayTimeUnit", Json::from("ms")),
            ("otherData", other),
        ])
    }
}

impl Spans for Recorder {
    fn open(&mut self, name: &str, layer: &'static str) -> SpanId {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            pass: self.pass,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        SpanId(id)
    }

    fn close(&mut self, id: SpanId) {
        self.spans[id.0].end = self.origin.elapsed();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans close in LIFO order");
    }

    fn done(
        &mut self,
        parent: Option<SpanId>,
        name: &str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent: parent.map(|p| p.0).or_else(|| self.stack.last().copied()),
            pass: self.pass,
        });
        SpanId(self.spans.len() - 1)
    }

    fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }
}
