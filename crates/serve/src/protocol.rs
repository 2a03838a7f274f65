//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response line per request — except
//! `subscribe`, whose acknowledgement line is followed by the raw JSONL
//! event stream until the job completes (the daemon then closes the
//! connection). No async runtime, no framing beyond `\n`.
//!
//! Verbs:
//!
//! | verb       | fields                                         | reply                         |
//! |------------|------------------------------------------------|-------------------------------|
//! | `ping`     |                                                | `{"ok":true,"pong":true,...}` |
//! | `submit`   | `spec` (object) or `spec_toml` (string), `checkpoint_every`? | `{"ok":true,"job":id}` |
//! | `status`   | `job`                                          | status document               |
//! | `list`     |                                                | `{"ok":true,"jobs":[...]}`    |
//! | `wait`     | `job`                                          | status document (blocks)      |
//! | `result`   | `job`                                          | `{"ok":true,"result":{...}}`  |
//! | `subscribe`| `job`                                          | ack, then the raw stream      |
//! | `fork`     | `job`, `at_tick`?, `spec`? (overrides)         | `{"ok":true,"job":new_id,...}`|
//! | `shutdown` |                                                | ack; daemon drains and exits  |
//!
//! Every error is `{"ok":false,"error":{"kind":...,"message":...}}`
//! with [`ServeError::kind`] as the kind — a malformed request can
//! never crash the daemon. A request line longer than
//! [`MAX_REQUEST_BYTES`](crate::server::MAX_REQUEST_BYTES) gets a
//! `bad_request` error, and the server then closes that connection.

use crate::daemon::Daemon;
use crate::error::ServeError;
use crate::job::StreamMsg;
use dynaquar_core::spec::{emit_json, parse_json, parse_toml, Value};
use std::sync::mpsc::Receiver;

/// What the transport should do after handling one request line.
#[derive(Debug)]
pub enum Reply {
    /// Write this line and keep reading requests.
    Line(String),
    /// Write the ack line, pump the subscription to the peer as a raw
    /// byte stream, then close the connection.
    Stream {
        /// The acknowledgement line.
        ack: String,
        /// The subscription to pump.
        rx: Receiver<StreamMsg>,
    },
    /// Write the ack line, then shut the daemon down.
    Shutdown {
        /// The acknowledgement line.
        ack: String,
    },
}

fn ok_line(mut fields: Vec<(String, Value)>) -> String {
    let mut all = vec![("ok".to_string(), Value::Bool(true))];
    all.append(&mut fields);
    emit_json(&Value::Object(all))
}

pub(crate) fn error_line(e: &ServeError) -> String {
    emit_json(&Value::Object(vec![
        ("ok".into(), Value::Bool(false)),
        (
            "error".into(),
            Value::Object(vec![
                ("kind".into(), Value::Str(e.kind().into())),
                ("message".into(), Value::Str(e.to_string())),
            ]),
        ),
    ]))
}

fn field_str<'a>(req: &'a Value, key: &str) -> Result<&'a str, ServeError> {
    req.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| ServeError::BadRequest {
            reason: format!("request needs a string `{key}` field"),
        })
}

fn field_uint(req: &Value, key: &str) -> Result<Option<u64>, ServeError> {
    match req.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
        Some(_) => Err(ServeError::BadRequest {
            reason: format!("`{key}` must be a non-negative integer"),
        }),
    }
}

/// Parses one request line and executes it against the daemon. Always
/// returns a reply — errors become error lines, not panics.
pub fn handle_line(daemon: &Daemon, line: &str) -> Reply {
    match handle_inner(daemon, line) {
        Ok(reply) => reply,
        Err(e) => Reply::Line(error_line(&e)),
    }
}

fn handle_inner(daemon: &Daemon, line: &str) -> Result<Reply, ServeError> {
    let req = parse_json(line)?;
    let verb = field_str(&req, "cmd")?;
    match verb {
        "ping" => {
            let (completed, panicked) = daemon.pool_stats();
            Ok(Reply::Line(ok_line(vec![
                ("pong".into(), Value::Bool(true)),
                ("workers".into(), Value::Int(daemon.workers() as i64)),
                ("jobs".into(), Value::Int(daemon.jobs().len() as i64)),
                ("completed".into(), Value::Int(completed as i64)),
                ("panicked".into(), Value::Int(panicked as i64)),
            ])))
        }
        "submit" => {
            let spec = match (req.get("spec"), req.get("spec_toml")) {
                (Some(spec @ Value::Object(_)), None) => spec.clone(),
                (None, Some(Value::Str(toml))) => parse_toml(toml)?,
                _ => {
                    return Err(ServeError::BadRequest {
                        reason: "submit needs exactly one of `spec` (object) or `spec_toml` \
                                 (string)"
                            .into(),
                    })
                }
            };
            let every = field_uint(&req, "checkpoint_every")?;
            let id = daemon.submit(&spec, every)?;
            Ok(Reply::Line(ok_line(vec![("job".into(), Value::Str(id))])))
        }
        "status" => {
            let status = daemon.status_value(field_str(&req, "job")?)?;
            Ok(Reply::Line(ok_with_status(status)))
        }
        "list" => {
            let mut jobs = Vec::new();
            for id in daemon.jobs() {
                jobs.push(daemon.status_value(&id)?);
            }
            Ok(Reply::Line(ok_line(vec![(
                "jobs".into(),
                Value::Array(jobs),
            )])))
        }
        "wait" => {
            let id = field_str(&req, "job")?;
            // Surface the failure as an error line; a finished job
            // reports its final status document.
            daemon.wait(id)?;
            Ok(Reply::Line(ok_with_status(daemon.status_value(id)?)))
        }
        "result" => {
            let id = field_str(&req, "job")?;
            let text = daemon.result_json(id)?;
            let result = parse_json(&text).map_err(|e| ServeError::Ledger {
                what: format!("persisted result.json does not parse: {e}"),
            })?;
            Ok(Reply::Line(ok_line(vec![
                ("job".into(), Value::Str(id.to_string())),
                ("result".into(), result),
            ])))
        }
        "subscribe" => {
            let id = field_str(&req, "job")?;
            let rx = daemon.subscribe(id)?;
            Ok(Reply::Stream {
                ack: ok_line(vec![
                    ("job".into(), Value::Str(id.to_string())),
                    ("streaming".into(), Value::Bool(true)),
                ]),
                rx,
            })
        }
        "fork" => {
            let id = field_str(&req, "job")?;
            let at_tick = field_uint(&req, "at_tick")?;
            let overrides = match req.get("spec") {
                None => Value::Object(Vec::new()),
                Some(o @ Value::Object(_)) => o.clone(),
                Some(_) => {
                    return Err(ServeError::BadRequest {
                        reason: "`spec` overrides must be an object".into(),
                    })
                }
            };
            let new_id = daemon.fork(id, at_tick, &overrides)?;
            let status = daemon.status_value(&new_id)?;
            Ok(Reply::Line(ok_with_status(status)))
        }
        "shutdown" => Ok(Reply::Shutdown {
            ack: ok_line(vec![("shutting_down".into(), Value::Bool(true))]),
        }),
        other => Err(ServeError::BadRequest {
            reason: format!("unknown verb `{other}`"),
        }),
    }
}

/// Wraps a status document as a top-level ok line (the document's own
/// fields are inlined).
fn ok_with_status(status: Value) -> String {
    match status {
        Value::Object(fields) => ok_line(fields),
        other => ok_line(vec![("status".into(), other)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::ServeConfig;
    use std::path::PathBuf;

    fn temp_daemon(tag: &str) -> (Daemon, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "dq-serve-proto-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (Daemon::open(ServeConfig::new(&dir)).unwrap(), dir)
    }

    fn line(daemon: &Daemon, req: &str) -> Value {
        match handle_line(daemon, req) {
            Reply::Line(text) => parse_json(&text).unwrap(),
            other => panic!("expected a line reply, got {other:?}"),
        }
    }

    const SPEC: &str = r#"{"topology":{"kind":"star","leaves":40},"beta":0.8,
        "horizon":20,"initial_infected":1,"runs":1,"seed":7}"#;

    #[test]
    fn submit_wait_result_round_trip_over_the_protocol() {
        let (daemon, dir) = temp_daemon("roundtrip");
        let reply = line(&daemon, &format!("{{\"cmd\":\"submit\",\"spec\":{SPEC}}}"));
        assert_eq!(reply.get("ok"), Some(&Value::Bool(true)));
        let job = reply.get("job").and_then(Value::as_str).unwrap().to_string();

        let waited = line(&daemon, &format!("{{\"cmd\":\"wait\",\"job\":\"{job}\"}}"));
        assert_eq!(waited.get("status").and_then(Value::as_str), Some("done"));

        let result = line(&daemon, &format!("{{\"cmd\":\"result\",\"job\":\"{job}\"}}"));
        assert!(result.get("result").and_then(|r| r.get("delivered_packets")).is_some());

        let listing = line(&daemon, "{\"cmd\":\"list\"}");
        match listing.get("jobs") {
            Some(Value::Array(jobs)) => assert_eq!(jobs.len(), 1),
            other => panic!("expected a jobs array, got {other:?}"),
        }
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn toml_specs_are_accepted_too() {
        let (daemon, dir) = temp_daemon("toml");
        let toml = "beta = 0.8\nhorizon = 20\ninitial_infected = 1\nruns = 1\nseed = 7\n\
                    [topology]\nkind = \"star\"\nleaves = 40\n";
        let escaped = toml.replace('\n', "\\n").replace('"', "\\\"");
        let reply = line(
            &daemon,
            &format!("{{\"cmd\":\"submit\",\"spec_toml\":\"{escaped}\"}}"),
        );
        assert_eq!(reply.get("ok"), Some(&Value::Bool(true)), "{reply:?}");
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_requests_become_typed_error_lines() {
        let (daemon, dir) = temp_daemon("badreq");
        for (req, kind) in [
            ("this is not json", "spec"),
            ("{\"cmd\":\"dance\"}", "bad_request"),
            ("{\"no_cmd\":1}", "bad_request"),
            ("{\"cmd\":\"status\",\"job\":\"job-404\"}", "unknown_job"),
            ("{\"cmd\":\"submit\"}", "bad_request"),
            (
                "{\"cmd\":\"submit\",\"spec\":{\"topology\":{\"kind\":\"star\",\"leaves\":0}}}",
                "spec",
            ),
        ] {
            let reply = line(&daemon, req);
            assert_eq!(reply.get("ok"), Some(&Value::Bool(false)), "req: {req}");
            let got = reply
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str);
            assert_eq!(got, Some(kind), "req: {req}");
        }
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn subscribe_acks_then_streams_and_shutdown_acks() {
        let (daemon, dir) = temp_daemon("stream");
        let reply = line(&daemon, &format!("{{\"cmd\":\"submit\",\"spec\":{SPEC}}}"));
        let job = reply.get("job").and_then(Value::as_str).unwrap().to_string();
        match handle_line(&daemon, &format!("{{\"cmd\":\"subscribe\",\"job\":\"{job}\"}}")) {
            Reply::Stream { ack, rx } => {
                let ack = parse_json(&ack).unwrap();
                assert_eq!(ack.get("streaming"), Some(&Value::Bool(true)));
                daemon.wait(&job).unwrap();
                let mut bytes = Vec::new();
                crate::job::pump_stream(rx, &mut bytes).unwrap();
                assert!(!bytes.is_empty());
            }
            other => panic!("expected a stream reply, got {other:?}"),
        }
        match handle_line(&daemon, "{\"cmd\":\"shutdown\"}") {
            Reply::Shutdown { ack } => {
                assert!(ack.contains("shutting_down"));
            }
            other => panic!("expected a shutdown reply, got {other:?}"),
        }
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
