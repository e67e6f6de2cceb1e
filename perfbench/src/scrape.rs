//! Snapshots of a daemon's or router's `/v1/metrics`, and their deltas
//! over the measured window.

use serde::Value;

use crate::client::Conn;
use crate::stats::Hist;

/// Counters, gauges and histograms by name.
#[derive(Default)]
pub struct Snapshot {
    counters: Vec<(String, f64)>,
    gauges: Vec<(String, f64)>,
    hists: Vec<(String, Hist)>,
}

impl Snapshot {
    pub fn fetch(addr: &str) -> Result<Snapshot, String> {
        let mut conn = Conn::connect(addr).map_err(|e| format!("metrics {addr}: {e}"))?;
        let resp = conn
            .get("/v1/metrics")
            .map_err(|e| format!("metrics {addr}: {e}"))?;
        if resp.status != 200 {
            return Err(format!("metrics {addr}: status {}", resp.status));
        }
        let text = String::from_utf8_lossy(&resp.body);
        let v: Value = serde_json::from_str(&text).map_err(|e| format!("metrics json: {e:?}"))?;
        Ok(Snapshot::from_value(&v))
    }

    fn from_value(v: &Value) -> Snapshot {
        let section = |name: &str| match v.get(name) {
            Some(Value::Object(fields)) => fields.clone(),
            _ => Vec::new(),
        };
        let numbers = |name: &str| {
            section(name)
                .into_iter()
                .filter_map(|(k, v)| v.as_f64().map(|f| (k, f)))
                .collect()
        };
        Snapshot {
            counters: numbers("counters"),
            gauges: numbers("gauges"),
            hists: section("histograms")
                .into_iter()
                .filter_map(|(k, v)| Hist::from_value(&v).map(|h| (k, h)))
                .collect(),
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        lookup(&self.counters, name).unwrap_or(0.0)
    }

    pub fn gauge(&self, name: &str) -> f64 {
        lookup(&self.gauges, name).unwrap_or(0.0)
    }

    pub fn hist(&self, name: &str) -> Hist {
        self.hists
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h.clone())
            .unwrap_or_default()
    }
}

fn lookup(v: &[(String, f64)], name: &str) -> Option<f64> {
    v.iter().find(|(k, _)| k == name).map(|(_, x)| *x)
}

/// Before/after snapshots of one process.
pub struct Window<'a> {
    pub before: &'a Snapshot,
    pub after: &'a Snapshot,
}

impl Window<'_> {
    pub fn counter(&self, name: &str) -> f64 {
        self.after.counter(name) - self.before.counter(name)
    }

    pub fn hist(&self, name: &str) -> Hist {
        self.after.hist(name).since(&self.before.hist(name))
    }

    /// Mean of a `serve.stage.<stage>_nanos` histogram over the window,
    /// in microseconds (0 when the stage never ran).
    pub fn stage_mean_us(&self, stage: &str) -> f64 {
        self.hist(&format!("serve.stage.{stage}_nanos")).mean() / 1e3
    }

    /// Total nanoseconds a stage accrued over the window.
    pub fn stage_sum_ns(&self, stage: &str) -> f64 {
        self.hist(&format!("serve.stage.{stage}_nanos")).sum as f64
    }
}
