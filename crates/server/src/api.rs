//! The wire API: JSON job requests in, JSON job views out.
//!
//! A submission body looks like:
//!
//! ```json
//! {
//!   "name": "forecast-a",
//!   "grid": {"lon": 48, "lat": 24, "lev": 3},
//!   "mesh": {"lat": 1, "lon": 2},
//!   "steps": 20,
//!   "filter": "lb_fft",
//!   "priority": "normal",
//!   "deadline_ms": 60000,
//!   "max_restarts": 1,
//!   "checkpoint_every": 1
//! }
//! ```
//!
//! Only `name`, `grid`, `mesh`, and `steps` are required. The parsed
//! request is kept as a [`Value`] too — that verbatim form is what the
//! journal stores, so a restarted server rebuilds the exact submission.
//!
//! Numeric fields are capped server-side ([`MAX_STEPS`],
//! [`MAX_RESTARTS`], [`MAX_DEADLINE_MS`], 64 ranks per job): these
//! bytes arrive off a socket, and an in-quota tenant must not be able
//! to occupy its ranks effectively forever with one giant job.

use agcm_core::AgcmConfig;
use agcm_ensemble::{JobRecord, JobSpec, JobView, Priority};
use agcm_filtering::driver::FilterVariant;
use agcm_grid::latlon::GridSpec;
use agcm_telemetry::json::Value;
use std::time::Duration;

/// Server-side cap on `steps`: together with the 64-rank cap this
/// bounds how long one admitted job can occupy its ranks, so an
/// in-quota tenant cannot park a quasi-infinite run on the budget.
pub const MAX_STEPS: usize = 1_000_000;
/// Server-side cap on `max_restarts` (each restart re-runs from the
/// last checkpoint, so unbounded retries are unbounded compute).
pub const MAX_RESTARTS: usize = 16;
/// Server-side cap on `deadline_ms`: 24 hours.
pub const MAX_DEADLINE_MS: u64 = 86_400_000;

/// A validated submission.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Job name for reports.
    pub name: String,
    /// The model configuration.
    pub config: AgcmConfig,
    /// Scheduling priority.
    pub priority: Priority,
    /// Soft deadline.
    pub deadline: Option<Duration>,
    /// Checkpoint/restart retry budget.
    pub max_restarts: usize,
    /// The request as received, for the journal.
    pub raw: Value,
}

fn require_u64(v: &Value, key: &str) -> Result<u64, String> {
    let n = v
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field '{key}'"))?;
    if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
        return Err(format!("field '{key}' must be a non-negative integer"));
    }
    Ok(n as u64)
}

fn optional_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(_) => require_u64(v, key).map(Some),
    }
}

fn parse_filter(name: &str) -> Result<FilterVariant, String> {
    match name {
        "convolution_ring" => Ok(FilterVariant::ConvolutionRing),
        "convolution_tree" => Ok(FilterVariant::ConvolutionTree),
        "fft_no_lb" => Ok(FilterVariant::FftNoLb),
        "lb_fft" => Ok(FilterVariant::LbFft),
        other => Err(format!(
            "unknown filter '{other}' (expected convolution_ring, convolution_tree, fft_no_lb, or lb_fft)"
        )),
    }
}

fn parse_priority(name: &str) -> Result<Priority, String> {
    match name {
        "low" => Ok(Priority::Low),
        "normal" => Ok(Priority::Normal),
        "high" => Ok(Priority::High),
        other => Err(format!(
            "unknown priority '{other}' (expected low, normal, or high)"
        )),
    }
}

impl JobRequest {
    /// Validate a parsed request body. Errors are client-facing strings
    /// (they become the 400 payload).
    pub fn from_value(v: &Value) -> Result<JobRequest, String> {
        if v.as_obj().is_none() {
            return Err("request body must be a JSON object".to_string());
        }
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing field 'name'")?
            .to_string();
        if name.is_empty() || name.len() > 128 {
            return Err("field 'name' must be 1..=128 characters".to_string());
        }
        let grid = v.get("grid").ok_or("missing field 'grid'")?;
        let (lon, lat, lev) = (
            require_u64(grid, "lon")? as usize,
            require_u64(grid, "lat")? as usize,
            require_u64(grid, "lev")? as usize,
        );
        if lon == 0 || lat == 0 || lev == 0 {
            return Err("grid dimensions must be positive".to_string());
        }
        let mesh = v.get("mesh").ok_or("missing field 'mesh'")?;
        let (mesh_lat, mesh_lon) = (
            require_u64(mesh, "lat")? as usize,
            require_u64(mesh, "lon")? as usize,
        );
        let steps = require_u64(v, "steps")? as usize;
        let filter = match v.get("filter") {
            None | Some(Value::Null) => FilterVariant::LbFft,
            Some(f) => parse_filter(f.as_str().ok_or("field 'filter' must be a string")?)?,
        };
        let priority = match v.get("priority") {
            None | Some(Value::Null) => Priority::Normal,
            Some(p) => parse_priority(p.as_str().ok_or("field 'priority' must be a string")?)?,
        };
        let steps_cap = |key: &str, n: usize| {
            if n > MAX_STEPS {
                return Err(format!(
                    "field '{key}' of {n} exceeds the server cap of {MAX_STEPS}"
                ));
            }
            Ok(n)
        };
        let steps = steps_cap("steps", steps)?;
        let deadline = match optional_u64(v, "deadline_ms")? {
            Some(ms) if ms > MAX_DEADLINE_MS => {
                return Err(format!(
                    "field 'deadline_ms' of {ms} exceeds the server cap of {MAX_DEADLINE_MS}"
                ));
            }
            other => other.map(Duration::from_millis),
        };
        let max_restarts = optional_u64(v, "max_restarts")?.unwrap_or(0) as usize;
        if max_restarts > MAX_RESTARTS {
            return Err(format!(
                "field 'max_restarts' of {max_restarts} exceeds the server cap of {MAX_RESTARTS}"
            ));
        }
        let checkpoint_every = optional_u64(v, "checkpoint_every")?.unwrap_or(1) as usize;
        let checkpoint_every = steps_cap("checkpoint_every", checkpoint_every)?;

        let config = AgcmConfig::for_grid(GridSpec::new(lon, lat, lev), mesh_lat, mesh_lon, filter)
            .with_steps(steps)
            .with_checkpointing(checkpoint_every);
        // Server-side jobs are untrusted: validate before touching the
        // scheduler so the error is a clean 400, and cap the mesh at
        // something a single process can actually thread.
        config
            .validate()
            .map_err(|e| format!("invalid model config: {e}"))?;
        if config.size() > 64 {
            return Err(format!(
                "mesh of {} ranks exceeds the server's per-job cap of 64",
                config.size()
            ));
        }
        Ok(JobRequest {
            name,
            config,
            priority,
            deadline,
            max_restarts,
            raw: v.clone(),
        })
    }

    /// Build the ensemble spec, with the tenant and durable-id tag
    /// attached by the server.
    pub fn to_spec(&self, tenant: Option<&str>, durable_id: u64) -> JobSpec {
        let mut spec = JobSpec::new(self.name.clone(), self.config)
            .with_priority(self.priority)
            .with_tag(durable_id)
            .with_retries(self.max_restarts);
        if let Some(t) = tenant {
            spec = spec.with_tenant(t);
        }
        if let Some(d) = self.deadline {
            spec = spec.with_deadline(d);
        }
        spec
    }
}

/// `GET /v1/jobs/{id}` payload for a live or terminal job.
pub fn view_to_value(durable_id: u64, view: &JobView) -> Value {
    match view {
        JobView::Queued { position, ranks } => Value::obj(vec![
            ("id", Value::Num(durable_id as f64)),
            ("state", Value::Str("queued".into())),
            ("position", Value::Num(*position as f64)),
            ("ranks", Value::Num(*ranks as f64)),
        ]),
        JobView::Running {
            ranks,
            resumed_from,
        } => Value::obj(vec![
            ("id", Value::Num(durable_id as f64)),
            ("state", Value::Str("running".into())),
            ("ranks", Value::Num(*ranks as f64)),
            (
                "resumed_from",
                resumed_from.map_or(Value::Null, |s| Value::Num(s as f64)),
            ),
        ]),
        JobView::Done(record) => record_to_value(durable_id, record),
    }
}

/// Terminal-record payload (also the `state` for done jobs).
pub fn record_to_value(durable_id: u64, r: &JobRecord) -> Value {
    Value::obj(vec![
        ("id", Value::Num(durable_id as f64)),
        ("state", Value::Str(r.status.label())),
        ("name", Value::Str(r.name.clone())),
        (
            "tenant",
            r.tenant
                .as_ref()
                .map_or(Value::Null, |t| Value::Str(t.clone())),
        ),
        ("ranks", Value::Num(r.ranks as f64)),
        ("priority", Value::Str(r.priority.label().into())),
        ("attempts", Value::Num(r.attempts as f64)),
        ("queue_seconds", Value::Num(r.queue_seconds)),
        ("run_seconds", Value::Num(r.run_seconds)),
        (
            "lineage",
            r.lineage
                .map_or(Value::Null, |l| Value::Str(format!("{l:016x}"))),
        ),
        (
            "resumed_from",
            r.resumed_from.map_or(Value::Null, |s| Value::Num(s as f64)),
        ),
    ])
}

/// `GET /v1/jobs/{id}/result` payload: the terminal record plus the
/// virtual-time run summary, when the job completed with a valid trace.
pub fn result_to_value(durable_id: u64, r: &JobRecord) -> Value {
    Value::obj(vec![
        ("id", Value::Num(durable_id as f64)),
        ("state", Value::Str(r.status.label())),
        (
            "summary",
            r.summary.as_ref().map_or(Value::Null, |s| s.to_json()),
        ),
    ])
}

/// A JSON error body: `{"error": "...", "detail": "..."}`.
pub fn error_body(error: &str, detail: &str) -> Vec<u8> {
    Value::obj(vec![
        ("error", Value::Str(error.into())),
        ("detail", Value::Str(detail.into())),
    ])
    .to_string()
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> Value {
        Value::parse(text).unwrap()
    }

    #[test]
    fn minimal_request_parses_with_defaults() {
        let req = JobRequest::from_value(&body(
            "{\"name\":\"j\",\"grid\":{\"lon\":48,\"lat\":24,\"lev\":3},\
             \"mesh\":{\"lat\":1,\"lon\":2},\"steps\":10}",
        ))
        .unwrap();
        assert_eq!(req.name, "j");
        assert_eq!(req.config.size(), 2);
        assert_eq!(req.config.steps, 10);
        assert_eq!(req.config.checkpoint_every, 1, "checkpointing defaults on");
        assert_eq!(req.priority, Priority::Normal);
        assert!(req.deadline.is_none());
    }

    #[test]
    fn full_request_parses() {
        let req = JobRequest::from_value(&body(
            "{\"name\":\"j\",\"grid\":{\"lon\":48,\"lat\":24,\"lev\":3},\
             \"mesh\":{\"lat\":2,\"lon\":2},\"steps\":5,\"filter\":\"fft_no_lb\",\
             \"priority\":\"high\",\"deadline_ms\":1500,\"max_restarts\":2,\
             \"checkpoint_every\":3}",
        ))
        .unwrap();
        assert_eq!(req.config.size(), 4);
        assert_eq!(req.priority, Priority::High);
        assert_eq!(req.deadline, Some(Duration::from_millis(1500)));
        assert_eq!(req.max_restarts, 2);
        assert_eq!(req.config.checkpoint_every, 3);
    }

    #[test]
    fn rejections_are_client_facing_strings() {
        let cases = [
            ("[1,2]", "object"),
            ("{\"grid\":{}}", "name"),
            ("{\"name\":\"j\"}", "grid"),
            (
                "{\"name\":\"j\",\"grid\":{\"lon\":48,\"lat\":24,\"lev\":3},\
                 \"mesh\":{\"lat\":1,\"lon\":1}}",
                "steps",
            ),
            (
                "{\"name\":\"j\",\"grid\":{\"lon\":48,\"lat\":24,\"lev\":3},\
                 \"mesh\":{\"lat\":1,\"lon\":1},\"steps\":1,\"filter\":\"dft\"}",
                "filter",
            ),
            (
                "{\"name\":\"j\",\"grid\":{\"lon\":48,\"lat\":24,\"lev\":3},\
                 \"mesh\":{\"lat\":1,\"lon\":1},\"steps\":-2}",
                "steps",
            ),
        ];
        for (text, needle) in cases {
            let err = JobRequest::from_value(&body(text)).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn oversized_numeric_fields_are_capped() {
        let base = "\"grid\":{\"lon\":48,\"lat\":24,\"lev\":3},\"mesh\":{\"lat\":1,\"lon\":1}";
        let cases = [
            (
                format!("{{\"name\":\"j\",{base},\"steps\":1000000000000000}}"),
                "steps",
            ),
            (
                format!("{{\"name\":\"j\",{base},\"steps\":1,\"max_restarts\":1000}}"),
                "max_restarts",
            ),
            (
                format!("{{\"name\":\"j\",{base},\"steps\":1,\"deadline_ms\":900000000000}}"),
                "deadline_ms",
            ),
            (
                format!("{{\"name\":\"j\",{base},\"steps\":1,\"checkpoint_every\":2000000}}"),
                "checkpoint_every",
            ),
        ];
        for (text, field) in cases {
            let err = JobRequest::from_value(&body(&text)).unwrap_err();
            assert!(
                err.contains(field) && err.contains("cap"),
                "{text} -> {err}"
            );
        }
        // At-cap values still admit.
        let ok = format!("{{\"name\":\"j\",{base},\"steps\":{MAX_STEPS},\"max_restarts\":{MAX_RESTARTS},\"deadline_ms\":{MAX_DEADLINE_MS}}}");
        assert!(JobRequest::from_value(&body(&ok)).is_ok());
    }

    #[test]
    fn degenerate_mesh_is_rejected_before_the_scheduler() {
        // Mesh wider than the grid: config.validate() refuses it.
        let err = JobRequest::from_value(&body(
            "{\"name\":\"j\",\"grid\":{\"lon\":48,\"lat\":24,\"lev\":3},\
             \"mesh\":{\"lat\":1,\"lon\":64},\"steps\":1}",
        ))
        .unwrap_err();
        assert!(err.contains("invalid model config"), "{err}");
        // Zero steps, same gate.
        let err = JobRequest::from_value(&body(
            "{\"name\":\"j\",\"grid\":{\"lon\":48,\"lat\":24,\"lev\":3},\
             \"mesh\":{\"lat\":1,\"lon\":1},\"steps\":0}",
        ))
        .unwrap_err();
        assert!(err.contains("invalid model config"), "{err}");
    }

    #[test]
    fn spec_carries_tenant_and_tag() {
        let req = JobRequest::from_value(&body(
            "{\"name\":\"j\",\"grid\":{\"lon\":48,\"lat\":24,\"lev\":3},\
             \"mesh\":{\"lat\":1,\"lon\":1},\"steps\":1}",
        ))
        .unwrap();
        let spec = req.to_spec(Some("alice"), 42);
        assert_eq!(spec.tenant.as_deref(), Some("alice"));
        assert_eq!(spec.tag, Some(42));
    }
}
