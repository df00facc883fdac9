//! Execution tracing: records per-process activity intervals and message
//! flows, exportable as Chrome trace JSON (`chrome://tracing`, Perfetto).
//!
//! Tracing is off by default (zero cost); enable it per run with
//! [`crate::Sim::enable_tracing`].

use crate::message::Tag;
use crate::time::SimTime;
use crate::ProcId;

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A process spent `[start, end)` computing.
    Compute {
        /// Rank.
        rank: usize,
        /// Interval start.
        start: SimTime,
        /// Interval end.
        end: SimTime,
    },
    /// A process spent `[start, end)` blocked in `recv`.
    Blocked {
        /// Rank.
        rank: usize,
        /// Interval start.
        start: SimTime,
        /// Interval end.
        end: SimTime,
    },
    /// A message flowed from `src` (at `sent`) to `dst` (at `arrived`).
    Message {
        /// Sender rank.
        src: usize,
        /// Receiver rank.
        dst: usize,
        /// Matching tag.
        tag: Tag,
        /// Declared payload bytes.
        bytes: u64,
        /// Departure time.
        sent: SimTime,
        /// Mailbox arrival time.
        arrived: SimTime,
    },
}

/// A complete execution trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// Events in recording order.
    pub events: Vec<TraceEvent>,
    /// Display name for the traced machine/run (shown as the process name in
    /// Chrome trace viewers). Empty means the default name.
    pub name: String,
}

/// Escapes a string for embedding inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl TraceLog {
    /// Sets the display name used by [`TraceLog::to_chrome_json`]. Any
    /// string is safe; it is escaped on render.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub(crate) fn compute(&mut self, rank: ProcId, start: SimTime, end: SimTime) {
        if start != end {
            self.events.push(TraceEvent::Compute {
                rank: rank.0,
                start,
                end,
            });
        }
    }

    pub(crate) fn blocked(&mut self, rank: ProcId, start: SimTime, end: SimTime) {
        if start != end {
            self.events.push(TraceEvent::Blocked {
                rank: rank.0,
                start,
                end,
            });
        }
    }

    pub(crate) fn message(
        &mut self,
        src: ProcId,
        dst: ProcId,
        tag: Tag,
        bytes: u64,
        sent: SimTime,
        arrived: SimTime,
    ) {
        self.events.push(TraceEvent::Message {
            src: src.0,
            dst: dst.0,
            tag,
            bytes,
            sent,
            arrived,
        });
    }

    /// Renders the trace in the Chrome trace-event JSON format. Load the
    /// result in `chrome://tracing` or <https://ui.perfetto.dev>: each rank
    /// is a track showing compute (green-ish) and blocked slices, with flow
    /// arrows for messages.
    pub fn to_chrome_json(&self) -> String {
        let us = |t: SimTime| t.as_nanos() as f64 / 1e3;
        let mut out = String::from("[\n");
        let mut flow_id = 0u64;
        for event in &self.events {
            match event {
                TraceEvent::Compute { rank, start, end } => {
                    out.push_str(&format!(
                        "{{\"name\":\"compute\",\"ph\":\"X\",\"pid\":0,\"tid\":{rank},\
                         \"ts\":{:.3},\"dur\":{:.3},\"cname\":\"good\"}},\n",
                        us(*start),
                        us(*end) - us(*start)
                    ));
                }
                TraceEvent::Blocked { rank, start, end } => {
                    out.push_str(&format!(
                        "{{\"name\":\"blocked\",\"ph\":\"X\",\"pid\":0,\"tid\":{rank},\
                         \"ts\":{:.3},\"dur\":{:.3},\"cname\":\"terrible\"}},\n",
                        us(*start),
                        us(*end) - us(*start)
                    ));
                }
                TraceEvent::Message {
                    src,
                    dst,
                    tag,
                    bytes,
                    sent,
                    arrived,
                } => {
                    flow_id += 1;
                    out.push_str(&format!(
                        "{{\"name\":\"msg tag={tag} {bytes}B\",\"ph\":\"s\",\"id\":{flow_id},\
                         \"pid\":0,\"tid\":{src},\"ts\":{:.3},\"cat\":\"msg\"}},\n",
                        us(*sent)
                    ));
                    out.push_str(&format!(
                        "{{\"name\":\"msg tag={tag} {bytes}B\",\"ph\":\"f\",\"bp\":\"e\",\
                         \"id\":{flow_id},\"pid\":0,\"tid\":{dst},\"ts\":{:.3},\"cat\":\"msg\"}},\n",
                        us(*arrived)
                    ));
                }
            }
        }
        // Metadata: name the process.
        let name = if self.name.is_empty() {
            "numagap machine"
        } else {
            &self.name
        };
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}\n]\n",
            json_escape(name)
        ));
        out
    }

    /// Total time recorded as computing, per rank.
    pub fn compute_time_of(&self, rank: usize) -> crate::SimDuration {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Compute {
                    rank: r,
                    start,
                    end,
                } if *r == rank => Some(end.since(*start)),
                _ => None,
            })
            .sum()
    }

    /// Number of message events.
    pub fn message_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Message { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_of_zero_length_are_dropped() {
        let mut log = TraceLog::default();
        log.compute(ProcId(0), SimTime::from_nanos(5), SimTime::from_nanos(5));
        assert!(log.is_empty());
        log.compute(ProcId(0), SimTime::from_nanos(5), SimTime::from_nanos(9));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn chrome_json_is_structurally_sound() {
        let mut log = TraceLog::default();
        log.compute(ProcId(0), SimTime::ZERO, SimTime::from_nanos(1000));
        log.blocked(ProcId(1), SimTime::ZERO, SimTime::from_nanos(500));
        log.message(
            ProcId(0),
            ProcId(1),
            Tag::app(3),
            64,
            SimTime::from_nanos(100),
            SimTime::from_nanos(400),
        );
        let json = log.to_chrome_json();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1);
        // Balanced braces (each event object opens and closes).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn names_with_quotes_and_non_ascii_are_escaped() {
        let mut log = TraceLog::default();
        log.set_name("wyścig \"wild\" recv\n№1");
        let json = log.to_chrome_json();
        assert!(json.contains("wyścig \\\"wild\\\" recv\\n№1"), "{json}");
        // The raw quote must never appear unescaped inside the name value.
        assert!(!json.contains("\"wild\""), "{json}");
    }

    #[test]
    fn aggregations() {
        let mut log = TraceLog::default();
        log.compute(ProcId(2), SimTime::ZERO, SimTime::from_nanos(100));
        log.compute(
            ProcId(2),
            SimTime::from_nanos(200),
            SimTime::from_nanos(350),
        );
        log.message(
            ProcId(0),
            ProcId(2),
            Tag::app(0),
            8,
            SimTime::ZERO,
            SimTime::from_nanos(50),
        );
        assert_eq!(log.compute_time_of(2).as_nanos(), 250);
        assert_eq!(log.compute_time_of(0).as_nanos(), 0);
        assert_eq!(log.message_count(), 1);
    }
}
