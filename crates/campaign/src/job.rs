//! Job declarations: the [`Campaign`] DAG builder and the [`Ctx`]
//! through which a running job reads its dependencies' artifacts.
//!
//! Two job flavors:
//!
//! * [`Campaign::output`] — produces the text of one results artifact
//!   (`<results>/<id>.txt`). Outputs are persisted in the
//!   content-addressed store and skipped on warm reruns.
//! * [`Campaign::artifact`] — produces an in-memory value (any
//!   `Send + Sync` type) consumed by dependents through
//!   [`Ctx::value`]. Artifacts are never persisted; the engine runs
//!   them only when some transitive dependent actually executes
//!   (demand pruning), so an all-hits warm rerun executes nothing.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A shared, type-erased artifact value.
pub type Value = Arc<dyn Any + Send + Sync>;

pub(crate) type ValueMap = Mutex<HashMap<String, Value>>;

/// What a job body returns.
pub(crate) enum Product {
    /// A persisted text artifact (output jobs).
    Text(String),
    /// An in-memory artifact (artifact jobs).
    Value(Value),
}

pub(crate) type RunFn = Box<dyn Fn(&Ctx) -> Result<Product, String> + Send + Sync>;

/// A running job's view of the campaign: its dependencies' artifacts.
pub struct Ctx<'a> {
    values: &'a ValueMap,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(values: &'a ValueMap) -> Self {
        Ctx { values }
    }

    /// The artifact produced by dependency `id`, downcast to `T`.
    ///
    /// Panics (failing the job) if the job did not declare `id` as a
    /// dependency or the type does not match the producer's — both are
    /// campaign-declaration bugs.
    pub fn value<T: Any + Send + Sync>(&self, id: &str) -> Arc<T> {
        let value = {
            let values = self.values.lock().unwrap();
            values.get(id).cloned()
        };
        let value = value.unwrap_or_else(|| {
            panic!("artifact `{id}` not available: job must declare it as a dependency")
        });
        value
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("artifact `{id}` has a different type than requested"))
    }
}

pub(crate) struct JobSpec {
    pub id: String,
    pub deps: Vec<String>,
    /// Knob/content contribution to the job's cache fingerprint
    /// (dependency fingerprints and the campaign salt are folded in by
    /// the engine).
    pub inputs_hash: u64,
    /// Output jobs persist `Product::Text`; artifact jobs hold
    /// `Product::Value` in memory only.
    pub persisted: bool,
    pub run: RunFn,
}

/// The declared job DAG.
#[derive(Default)]
pub struct Campaign {
    pub(crate) jobs: Vec<JobSpec>,
}

impl Campaign {
    pub fn new() -> Self {
        Campaign::default()
    }

    /// Declared job ids, in declaration order.
    pub fn ids(&self) -> Vec<&str> {
        self.jobs.iter().map(|j| j.id.as_str()).collect()
    }

    /// Dependencies of one job, if declared.
    pub fn deps(&self, id: &str) -> Option<&[String]> {
        self.jobs
            .iter()
            .find(|j| j.id == id)
            .map(|j| j.deps.as_slice())
    }

    /// Whether `id` is a persisted output job.
    pub fn is_output(&self, id: &str) -> Option<bool> {
        self.jobs.iter().find(|j| j.id == id).map(|j| j.persisted)
    }

    /// Declares an in-memory artifact job.
    pub fn artifact<T, F>(&mut self, id: &str, deps: &[&str], inputs_hash: u64, f: F)
    where
        T: Any + Send + Sync,
        F: Fn(&Ctx) -> Result<T, String> + Send + Sync + 'static,
    {
        self.push(id, deps, inputs_hash, false, move |ctx| {
            f(ctx).map(|v| Product::Value(Arc::new(v)))
        });
    }

    /// Declares a persisted output job writing `<results>/<id>.txt`.
    pub fn output<F>(&mut self, id: &str, deps: &[&str], inputs_hash: u64, f: F)
    where
        F: Fn(&Ctx) -> Result<String, String> + Send + Sync + 'static,
    {
        self.push(id, deps, inputs_hash, true, move |ctx| {
            f(ctx).map(Product::Text)
        });
    }

    fn push<F>(&mut self, id: &str, deps: &[&str], inputs_hash: u64, persisted: bool, run: F)
    where
        F: Fn(&Ctx) -> Result<Product, String> + Send + Sync + 'static,
    {
        assert!(
            !id.is_empty()
                && id
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
            "job id `{id}` must be non-empty [A-Za-z0-9_-] (it names files)"
        );
        assert!(
            self.jobs.iter().all(|j| j.id != id),
            "duplicate job id `{id}`"
        );
        self.jobs.push(JobSpec {
            id: id.to_string(),
            deps: deps.iter().map(|d| d.to_string()).collect(),
            inputs_hash,
            persisted,
            run: Box::new(run),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn duplicate_ids_rejected() {
        let mut c = Campaign::new();
        c.output("a", &[], 0, |_| Ok(String::new()));
        c.output("a", &[], 0, |_| Ok(String::new()));
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn bad_ids_rejected() {
        let mut c = Campaign::new();
        c.output("a/b", &[], 0, |_| Ok(String::new()));
    }

    #[test]
    fn declarations_are_queryable() {
        let mut c = Campaign::new();
        c.artifact("base", &[], 1, |_| Ok::<_, String>(42u32));
        c.output("report", &["base"], 2, |ctx| {
            Ok(format!("{}", ctx.value::<u32>("base")))
        });
        assert_eq!(c.ids(), vec!["base", "report"]);
        assert_eq!(c.deps("report").unwrap(), ["base".to_string()]);
        assert_eq!(c.is_output("base"), Some(false));
        assert_eq!(c.is_output("report"), Some(true));
    }
}
