//! Maps `(method, path)` to a handler and a normalized route label.
//!
//! The label (e.g. `"GET /v1/jobs/:id"`) is what the per-route metrics
//! key on, so unbounded path segments (job ids) collapse to one
//! counter instead of one counter per id.
//!
//! `/v1/*` and `/v2/*` dispatch to the same handlers; the
//! [`ApiVersion`] argument selects the response dialect (bare v1
//! document vs. the v2 `{"v": 2, "data": ...}` envelope).
//!
//! [`route_resident`] is the reactor thread's subset: the requests it
//! can answer without blocking, under the same labels as [`route`].

use std::sync::Arc;

use crate::api::ApiVersion;
use crate::handlers;
use crate::http::{Request, Response};
use crate::server::AppState;

/// Answers a request on the reactor thread when that cannot block: a
/// simulate whose trace is resident in memory. `None` means "dispatch
/// it through [`route`]".
pub fn route_resident(state: &AppState, req: &Request) -> Option<(&'static str, Response)> {
    use ApiVersion::{V1, V2};
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/simulate") => Some((
            "POST /v1/simulate",
            handlers::simulate_resident(state, &req.body, V1)?,
        )),
        ("POST", "/v2/simulate") => Some((
            "POST /v2/simulate",
            handlers::simulate_resident(state, &req.body, V2)?,
        )),
        _ => None,
    }
}

/// Dispatches one request. Returns the normalized route label (for
/// metrics) and the response.
pub fn route(state: &Arc<AppState>, req: &Request) -> (&'static str, Response) {
    use ApiVersion::{V1, V2};
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("GET /healthz", handlers::healthz()),
        ("GET", "/metrics") => ("GET /metrics", handlers::metrics(state)),
        ("GET", "/v1/jobs") => ("GET /v1/jobs", handlers::jobs(state, V1)),
        ("GET", "/v2/jobs") => ("GET /v2/jobs", handlers::jobs(state, V2)),
        ("GET", path) if path.starts_with("/v1/jobs/") => (
            "GET /v1/jobs/:id",
            handlers::job(state, &path["/v1/jobs/".len()..], V1),
        ),
        ("GET", path) if path.starts_with("/v2/jobs/") => (
            "GET /v2/jobs/:id",
            handlers::job(state, &path["/v2/jobs/".len()..], V2),
        ),
        ("POST", "/v1/simulate") => (
            "POST /v1/simulate",
            handlers::simulate(state, &req.body, V1),
        ),
        ("POST", "/v2/simulate") => (
            "POST /v2/simulate",
            handlers::simulate(state, &req.body, V2),
        ),
        ("POST", "/v1/recommend") => (
            "POST /v1/recommend",
            handlers::recommend(state, &req.body, V1),
        ),
        ("POST", "/v2/recommend") => (
            "POST /v2/recommend",
            handlers::recommend(state, &req.body, V2),
        ),
        ("POST", "/v1/sweep") => ("POST /v1/sweep", handlers::sweep(state, &req.body, V1)),
        ("POST", "/v2/sweep") => ("POST /v2/sweep", handlers::sweep(state, &req.body, V2)),
        // Upload is a /v2-only surface: the v1 shim predates content-
        // addressed matrices and stays frozen.
        ("POST", "/v2/matrices") => (
            "POST /v2/matrices",
            handlers::upload_matrix(state, &req.body, V2),
        ),
        // Shard-to-shard epoch-cache protocol (/v2-only, binary). GET
        // serves one encoded epoch; PUT accepts a warm push.
        ("GET", path) if path.starts_with("/v2/cache/epoch/") => (
            "GET /v2/cache/epoch/:key",
            handlers::epoch_get(&path["/v2/cache/epoch/".len()..], &req.query),
        ),
        ("PUT", path) if path.starts_with("/v2/cache/epoch/") => (
            "PUT /v2/cache/epoch/:key",
            handlers::epoch_put(&path["/v2/cache/epoch/".len()..], &req.body),
        ),
        (_, path) if path.starts_with("/v2/cache/epoch/") => (
            "method_not_allowed",
            Response::error(405, "method not allowed for this path"),
        ),
        // Admin surface is /v2-only, like uploads.
        ("POST", "/v2/admin/drain") => ("POST /v2/admin/drain", handlers::drain(state, V2)),
        ("GET", "/v2/admin/topology") => {
            ("GET /v2/admin/topology", handlers::topology_get(state, V2))
        }
        ("POST", "/v2/admin/topology") => (
            "POST /v2/admin/topology",
            handlers::topology_put(state, &req.body, V2),
        ),
        // Known admin paths answer wrong-method hits with an enveloped
        // /v2 error (the path exists, only the verb is wrong); the bare
        // data paths below keep their historical unenveloped 405.
        (_, "/v2/admin/drain" | "/v2/admin/topology") => {
            ("method_not_allowed", handlers::admin_method_not_allowed())
        }
        (
            _,
            "/healthz" | "/metrics" | "/v1/jobs" | "/v1/simulate" | "/v1/recommend" | "/v1/sweep"
            | "/v2/jobs" | "/v2/simulate" | "/v2/recommend" | "/v2/sweep" | "/v2/matrices",
        ) => (
            "method_not_allowed",
            Response::error(405, "method not allowed for this path"),
        ),
        _ => ("not_found", Response::error(404, "no such endpoint")),
    }
}
