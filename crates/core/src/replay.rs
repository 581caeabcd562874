//! Replay specifications — the paper's "control specifications" (§4.1).
//!
//! The paper's controller replays *user interaction sequences* described by
//! control specifications that an average app developer can write, naming
//! views by signature rather than coordinates. This module is that layer: a
//! declarative, serializable description of a replay session that the
//! [`Controller`] executes. The specifications for the behaviours of
//! Table 1 ship in [`specs`].

use crate::controller::{Controller, WaitCondition};
use device::ui::ViewSignature;
use device::UiEvent;
use simcore::SimDuration;

/// A serializable wait condition (mirrors [`WaitCondition`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitSpec {
    /// Text containing `needle` appears under the view `container`.
    TextAppears {
        /// Subtree root id.
        container: String,
        /// Needle to search for.
        needle: String,
    },
    /// The view becomes visible.
    Shown {
        /// View id.
        id: String,
    },
    /// The view becomes invisible.
    Hidden {
        /// View id.
        id: String,
    },
    /// The view's text equals `value`.
    TextIs {
        /// View id.
        id: String,
        /// Expected text.
        value: String,
    },
}

impl From<&WaitSpec> for WaitCondition {
    fn from(w: &WaitSpec) -> WaitCondition {
        match w {
            WaitSpec::TextAppears { container, needle } => WaitCondition::TextAppears {
                container: container.clone(),
                needle: needle.clone(),
            },
            WaitSpec::Shown { id } => WaitCondition::Shown { id: id.clone() },
            WaitSpec::Hidden { id } => WaitCondition::Hidden { id: id.clone() },
            WaitSpec::TextIs { id, value } => WaitCondition::TextIs {
                id: id.clone(),
                value: value.clone(),
            },
        }
    }
}

/// A UI interaction in a specification (addressed by view id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InteractSpec {
    /// Tap a view.
    Click {
        /// Target view id.
        id: String,
    },
    /// Pull/scroll gesture.
    Scroll {
        /// Target view id.
        id: String,
    },
    /// Type text into a view.
    Type {
        /// Target view id.
        id: String,
        /// The text.
        text: String,
    },
    /// Press ENTER.
    PressEnter,
}

impl InteractSpec {
    fn to_event(&self) -> UiEvent {
        match self {
            InteractSpec::Click { id } => UiEvent::Click {
                target: ViewSignature::by_id(id),
            },
            InteractSpec::Scroll { id } => UiEvent::Scroll {
                target: ViewSignature::by_id(id),
            },
            InteractSpec::Type { id, text } => UiEvent::TypeText {
                target: ViewSignature::by_id(id),
                text: text.clone(),
            },
            InteractSpec::PressEnter => UiEvent::KeyEnter,
        }
    }
}

/// One step of a replay session.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayStep {
    /// Let the scenario run idle for a while (inter-action timing — the
    /// paper supports replaying sequences "both with and without replaying
    /// the timing between each action").
    Dwell {
        /// Idle seconds.
        secs: f64,
    },
    /// Perform an interaction without measuring.
    Interact(InteractSpec),
    /// Trigger an interaction and measure until `until` holds.
    MeasureAfter {
        /// Action label for the behaviour log.
        action: String,
        /// The triggering interaction.
        trigger: InteractSpec,
        /// Wait-ending condition.
        until: WaitSpec,
        /// Timeout in seconds.
        timeout_secs: f64,
    },
    /// Measure an app-triggered span (`begin` observed → `end` observed).
    MeasureSpan {
        /// Action label.
        action: String,
        /// Span start condition.
        begin: WaitSpec,
        /// Span end condition.
        end: WaitSpec,
        /// Timeout in seconds.
        timeout_secs: f64,
    },
    /// Monitor a playing video until it finishes, logging rebuffer spans.
    MonitorPlayback {
        /// Action label prefix.
        action: String,
        /// Timeout in seconds.
        timeout_secs: f64,
    },
}

/// A named, replayable user-behaviour specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySpec {
    /// Specification name (e.g. `facebook:upload_post`).
    pub name: String,
    /// The steps, in order.
    pub steps: Vec<ReplayStep>,
}

impl ReplaySpec {
    /// Execute the specification; returns the number of measurements added
    /// to the behaviour log.
    pub fn execute(&self, doctor: &mut Controller) -> usize {
        let before = doctor.log.len();
        for step in &self.steps {
            match step {
                ReplayStep::Dwell { secs } => {
                    doctor.advance(SimDuration::from_secs_f64(*secs));
                }
                ReplayStep::Interact(i) => doctor.interact(&i.to_event()),
                ReplayStep::MeasureAfter {
                    action,
                    trigger,
                    until,
                    timeout_secs,
                } => {
                    doctor.measure_after(
                        action,
                        &trigger.to_event(),
                        &until.into(),
                        SimDuration::from_secs_f64(*timeout_secs),
                    );
                }
                ReplayStep::MeasureSpan {
                    action,
                    begin,
                    end,
                    timeout_secs,
                } => {
                    doctor.measure_span(
                        action,
                        &begin.into(),
                        &end.into(),
                        SimDuration::from_secs_f64(*timeout_secs),
                    );
                }
                ReplayStep::MonitorPlayback {
                    action,
                    timeout_secs,
                } => {
                    doctor.monitor_playback(action, SimDuration::from_secs_f64(*timeout_secs));
                }
            }
        }
        doctor.log.len() - before
    }
}

/// The Table 1 behaviours as executable specifications.
pub mod specs {
    use super::*;

    /// Facebook: upload a post with the given composer text; the post kind
    /// is encoded by the text prefix (`status:` / `checkin:` / `photos:`).
    pub fn facebook_upload_post(text: &str) -> ReplaySpec {
        ReplaySpec {
            name: "facebook:upload_post".into(),
            steps: vec![
                ReplayStep::Interact(InteractSpec::Type {
                    id: "composer".into(),
                    text: text.into(),
                }),
                ReplayStep::MeasureAfter {
                    action: format!("upload_post:{}", text.split(':').next().unwrap_or("status")),
                    trigger: InteractSpec::Click {
                        id: "post_button".into(),
                    },
                    until: WaitSpec::TextAppears {
                        container: "news_feed".into(),
                        needle: text.into(),
                    },
                    timeout_secs: 120.0,
                },
            ],
        }
    }

    /// Facebook: pull-to-update (the scroll gesture variant).
    pub fn facebook_pull_to_update() -> ReplaySpec {
        ReplaySpec {
            name: "facebook:pull_to_update".into(),
            steps: vec![
                ReplayStep::Interact(InteractSpec::Scroll {
                    id: "news_feed".into(),
                }),
                ReplayStep::MeasureSpan {
                    action: "pull_to_update".into(),
                    begin: WaitSpec::Shown {
                        id: "feed_progress".into(),
                    },
                    end: WaitSpec::Hidden {
                        id: "feed_progress".into(),
                    },
                    timeout_secs: 60.0,
                },
            ],
        }
    }

    /// YouTube: search for `query`, play the result named `video`, watch it
    /// to the end while logging rebuffer spans.
    pub fn youtube_watch(query: &str, video: &str, watch_timeout_secs: f64) -> ReplaySpec {
        ReplaySpec {
            name: "youtube:watch_video".into(),
            steps: vec![
                ReplayStep::Interact(InteractSpec::Type {
                    id: "search_box".into(),
                    text: query.into(),
                }),
                ReplayStep::Interact(InteractSpec::PressEnter),
                ReplayStep::Dwell { secs: 5.0 },
                ReplayStep::MeasureAfter {
                    action: "video:initial_loading".into(),
                    trigger: InteractSpec::Click {
                        id: format!("result_{video}"),
                    },
                    until: WaitSpec::Hidden {
                        id: "player_progress".into(),
                    },
                    timeout_secs: 240.0,
                },
                ReplayStep::MonitorPlayback {
                    action: "video".into(),
                    timeout_secs: watch_timeout_secs,
                },
            ],
        }
    }

    /// Web browsing: load `url` and measure the page load time.
    pub fn browser_load_page(url: &str) -> ReplaySpec {
        ReplaySpec {
            name: "browser:load_page".into(),
            steps: vec![
                ReplayStep::Interact(InteractSpec::Type {
                    id: "url_bar".into(),
                    text: url.into(),
                }),
                ReplayStep::MeasureAfter {
                    action: "page_load".into(),
                    trigger: InteractSpec::PressEnter,
                    until: WaitSpec::Hidden {
                        id: "page_progress".into(),
                    },
                    timeout_secs: 90.0,
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_specs_cover_table1() {
        let all = [
            specs::facebook_upload_post("status: hi"),
            specs::facebook_pull_to_update(),
            specs::youtube_watch("a", "a01", 300.0),
            specs::browser_load_page("http://www.example.com/"),
        ];
        // Every Table 1 behaviour is present and each spec measures
        // something.
        assert!(all.iter().any(|s| s.name.contains("upload_post")));
        assert!(all.iter().any(|s| s.name.contains("pull_to_update")));
        assert!(all.iter().any(|s| s.name.contains("watch_video")));
        assert!(all.iter().any(|s| s.name.contains("load_page")));
        for spec in &all {
            assert!(spec.steps.iter().any(|st| matches!(
                st,
                ReplayStep::MeasureAfter { .. }
                    | ReplayStep::MeasureSpan { .. }
                    | ReplayStep::MonitorPlayback { .. }
            )));
            assert_eq!(spec, &spec.clone());
        }
    }

    #[test]
    fn wait_spec_converts_to_condition() {
        let w = WaitSpec::Hidden {
            id: "page_progress".into(),
        };
        let c: WaitCondition = (&w).into();
        assert_eq!(
            c,
            WaitCondition::Hidden {
                id: "page_progress".into()
            }
        );
        let w = WaitSpec::TextAppears {
            container: "feed".into(),
            needle: "x".into(),
        };
        let c: WaitCondition = (&w).into();
        assert_eq!(
            c,
            WaitCondition::TextAppears {
                container: "feed".into(),
                needle: "x".into()
            }
        );
    }

    #[test]
    fn interact_spec_builds_events() {
        assert_eq!(InteractSpec::PressEnter.to_event(), UiEvent::KeyEnter);
        let click = InteractSpec::Click { id: "go".into() };
        match click.to_event() {
            UiEvent::Click { target } => assert_eq!(target.id.as_deref(), Some("go")),
            other => panic!("unexpected event {other:?}"),
        }
    }
}
