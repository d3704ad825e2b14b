//! The `polysig-serve` wire protocol: typed requests/responses, their JSON
//! codecs, and the length-prefixed framing.
//!
//! One frame is a 4-byte big-endian length followed by that many bytes of
//! UTF-8 JSON. Requests name a pipeline stage ([`RequestKind`]), carry the
//! program source, and optionally a scenario (in [`Scenario::from_text`]'s
//! line format), a `never_true` property signal, and estimation knobs.
//! Responses carry where the answer came from ([`Served`]) and a typed
//! [`Outcome`]; outcome payloads are the *library's* report types, so
//! equality against a direct library call is plain `==` — the `ServeEquiv`
//! oracle's whole comparison.
//!
//! [`Scenario::from_text`]: polysig_sim::Scenario::from_text

use std::fmt::Write as _;
use std::io::{self, Read, Write};

use polysig_analyze::AnalysisReport;
use polysig_gals::EstimationReport;
use polysig_lang::ast::{Program, Statement};
use polysig_lang::pretty_program;
use polysig_verify::CheckResult;

use super::json::Json;

/// Frames larger than this are a protocol violation, not a payload.
pub const MAX_FRAME: usize = 16 << 20;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates the transport's I/O errors; refuses oversized payloads.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds MAX_FRAME"));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` on a clean EOF at a frame
/// boundary (the peer hung up).
///
/// # Errors
///
/// Propagates I/O errors; rejects frames over [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

/// Which pipeline stage(s) the request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Parse + resolve + type-check; returns the canonical source.
    Parse,
    /// Static analysis ([`polysig_analyze::analyze_program`], or the
    /// scenario-aware variant when a scenario is given).
    Lint,
    /// The Section-5.2 buffer estimation loop (scenario required).
    Estimate,
    /// Reachability: `never_true` on the named signal (property required).
    Check,
    /// parse → lint → estimate (if scenario) → check (if property).
    Pipeline,
}

impl RequestKind {
    /// The wire tag.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Parse => "parse",
            RequestKind::Lint => "lint",
            RequestKind::Estimate => "estimate",
            RequestKind::Check => "check",
            RequestKind::Pipeline => "pipeline",
        }
    }

    /// Parses the wire tag.
    pub fn parse_tag(s: &str) -> Option<RequestKind> {
        Some(match s {
            "parse" => RequestKind::Parse,
            "lint" => RequestKind::Lint,
            "estimate" => RequestKind::Estimate,
            "check" => RequestKind::Check,
            "pipeline" => RequestKind::Pipeline,
            _ => return None,
        })
    }
}

/// Estimation knobs a request may set; everything else stays at the
/// server's defaults. Every field participates in the cache key — two
/// requests differing in any knob never alias (asserted by tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EstimationParams {
    /// `EstimationOptions::initial_size` override.
    pub initial_size: Option<usize>,
    /// `EstimationOptions::max_iterations` override (clamped to budget).
    pub max_iterations: Option<usize>,
    /// `EstimationOptions::max_size` override (clamped to budget).
    pub max_size: Option<usize>,
}

/// One request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The stage(s) to run.
    pub kind: RequestKind,
    /// The Signal program source.
    pub source: String,
    /// Scenario in [`polysig_sim::Scenario::from_text`] line format.
    pub scenario: Option<String>,
    /// Signal name for the `never_true` reachability property.
    pub property: Option<String>,
    /// Estimation knobs.
    pub params: EstimationParams,
    /// Worker threads for the layer-parallel checker / estimation
    /// (`0` = server default; larger counts are capped at it). Not part of
    /// the cache key: the engines are thread-invariant by contract.
    pub threads: usize,
}

impl Request {
    /// A request with defaults for everything but the essentials.
    pub fn new(id: u64, kind: RequestKind, source: impl Into<String>) -> Request {
        Request {
            id,
            kind,
            source: source.into(),
            scenario: None,
            property: None,
            params: EstimationParams::default(),
            threads: 0,
        }
    }

    /// The request as a JSON document.
    pub fn to_json(&self) -> String {
        let mut members = vec![
            ("id".to_string(), Json::Num(self.id as i64)),
            ("kind".to_string(), Json::Str(self.kind.as_str().into())),
            ("source".to_string(), Json::Str(self.source.clone())),
        ];
        if let Some(s) = &self.scenario {
            members.push(("scenario".into(), Json::Str(s.clone())));
        }
        if let Some(p) = &self.property {
            members.push(("property".into(), Json::Str(p.clone())));
        }
        let mut params = Vec::new();
        if let Some(v) = self.params.initial_size {
            params.push(("initial_size".to_string(), Json::Num(v as i64)));
        }
        if let Some(v) = self.params.max_iterations {
            params.push(("max_iterations".to_string(), Json::Num(v as i64)));
        }
        if let Some(v) = self.params.max_size {
            params.push(("max_size".to_string(), Json::Num(v as i64)));
        }
        if !params.is_empty() {
            members.push(("params".into(), Json::Obj(params)));
        }
        if self.threads != 0 {
            members.push(("threads".into(), Json::Num(self.threads as i64)));
        }
        Json::Obj(members).render()
    }

    /// Decodes a request document.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field.
    pub fn from_json(text: &str) -> Result<Request, String> {
        let v = Json::parse(text)?;
        let id = v.get("id").and_then(Json::as_i64).ok_or("missing numeric `id`")? as u64;
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .and_then(RequestKind::parse_tag)
            .ok_or("missing or unknown `kind`")?;
        let source =
            v.get("source").and_then(Json::as_str).ok_or("missing string `source`")?.to_string();
        let scenario = v.get("scenario").and_then(Json::as_str).map(str::to_string);
        let property = v.get("property").and_then(Json::as_str).map(str::to_string);
        let usize_of = |j: &Json, what: &str| -> Result<usize, String> {
            j.as_i64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| format!("`{what}` must be a non-negative integer"))
        };
        let mut params = EstimationParams::default();
        if let Some(p) = v.get("params") {
            if let Some(x) = p.get("initial_size") {
                params.initial_size = Some(usize_of(x, "initial_size")?);
            }
            if let Some(x) = p.get("max_iterations") {
                params.max_iterations = Some(usize_of(x, "max_iterations")?);
            }
            if let Some(x) = p.get("max_size") {
                params.max_size = Some(usize_of(x, "max_size")?);
            }
        }
        let threads = match v.get("threads") {
            Some(t) => usize_of(t, "threads")?,
            None => 0,
        };
        Ok(Request { id, kind, source, scenario, property, params, threads })
    }
}

/// Where a response came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Computed by this request.
    Cold,
    /// Found in the cache.
    Hit,
    /// Another in-flight request with the same key computed it
    /// (single-flight coalescing).
    Coalesced,
}

impl Served {
    /// The wire tag.
    pub fn as_str(self) -> &'static str {
        match self {
            Served::Cold => "cold",
            Served::Hit => "hit",
            Served::Coalesced => "coalesced",
        }
    }
}

/// The parse stage's summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSummary {
    /// The canonical pretty-printed source.
    pub normalized: String,
    /// Component count.
    pub components: usize,
    /// Equation count across components.
    pub equations: usize,
}

impl ParseSummary {
    /// The summary of a resolved program — the serving engine and the
    /// `ServeEquiv` oracle both call this, so "field-for-field identical"
    /// means identical inputs, not identical helpers.
    pub fn of(program: &Program) -> ParseSummary {
        ParseSummary {
            normalized: pretty_program(program),
            components: program.components.len(),
            equations: program
                .components
                .iter()
                .flat_map(|c| &c.stmts)
                .filter(|s| matches!(s, Statement::Eq(_)))
                .count(),
        }
    }
}

/// The reachability check's summary (the library's [`CheckResult`] minus
/// the non-comparable property closure, plus the rendered counterexample).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckSummary {
    /// Property holds on the explored space.
    pub holds: bool,
    /// Distinct states visited.
    pub states_explored: usize,
    /// Reactions executed.
    pub transitions: usize,
    /// Letters pruned by clock rejection.
    pub pruned: usize,
    /// Exploration cut off by the depth bound.
    pub depth_bounded: bool,
    /// Length of the shortest violating trace, when `!holds`.
    pub counterexample_len: Option<usize>,
}

impl CheckSummary {
    /// Projects the library result.
    pub fn of(r: &CheckResult) -> CheckSummary {
        CheckSummary {
            holds: r.holds,
            states_explored: r.states_explored,
            transitions: r.transitions,
            pruned: r.pruned,
            depth_bounded: r.depth_bounded,
            counterexample_len: r.counterexample.as_ref().map(|c| c.len()),
        }
    }
}

/// The full-pipeline payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineReport {
    /// Parse summary.
    pub parse: ParseSummary,
    /// Static analysis (scenario-aware when one was given).
    pub analysis: AnalysisReport,
    /// Estimation, when a scenario was given.
    pub estimation: Option<EstimationReport>,
    /// Reachability, when a property was given.
    pub check: Option<CheckSummary>,
}

/// A request's result.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// `kind: parse`.
    Parsed(ParseSummary),
    /// `kind: lint`.
    Analysis(AnalysisReport),
    /// `kind: estimate`.
    Estimation(EstimationReport),
    /// `kind: check`.
    Checked(CheckSummary),
    /// `kind: pipeline`.
    Pipeline(Box<PipelineReport>),
    /// The program (or scenario/property) is at fault; `stage` names the
    /// pipeline stage that rejected it.
    SourceError {
        /// Rejecting stage.
        stage: String,
        /// The library's error message, verbatim.
        message: String,
    },
    /// A resource budget was exhausted ([`polysig_gals::budget::Breach`]
    /// rendered); the request was abandoned, the pool was not.
    BudgetExceeded {
        /// The breach, rendered.
        reason: String,
    },
}

impl Outcome {
    /// The wire tag of this outcome variant.
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Parsed(_) => "parsed",
            Outcome::Analysis(_) => "analysis",
            Outcome::Estimation(_) => "estimation",
            Outcome::Checked(_) => "checked",
            Outcome::Pipeline(_) => "pipeline",
            Outcome::SourceError { .. } => "source_error",
            Outcome::BudgetExceeded { .. } => "budget_exceeded",
        }
    }
}

/// One response.
///
/// The outcome is shared, not owned: cache hits and coalesced waiters
/// hand out the stored payload by reference count instead of deep-cloning
/// report trees. On the wire a hit does not render this value at all: the
/// engine caches the payload text beside it (see `Engine::submit_wire`).
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's correlation id.
    pub id: u64,
    /// Cache disposition.
    pub served: Served,
    /// The payload.
    pub outcome: std::sync::Arc<Outcome>,
}

fn estimation_json(r: &EstimationReport) -> Json {
    let sizes = |m: &std::collections::BTreeMap<polysig_tagged::SigName, usize>| {
        Json::Obj(m.iter().map(|(k, v)| (k.to_string(), Json::Num(*v as i64))).collect())
    };
    Json::Obj(vec![
        ("converged".into(), Json::Bool(r.converged)),
        ("iterations".into(), Json::Num(r.history.len() as i64)),
        (
            "history".into(),
            Json::Arr(
                r.history
                    .iter()
                    .map(|it| {
                        Json::Obj(vec![
                            ("sizes".into(), sizes(&it.sizes)),
                            ("alarms".into(), sizes(&it.alarms)),
                            ("max_miss".into(), sizes(&it.max_miss)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("final_sizes".into(), sizes(&r.final_sizes)),
        (
            "provenance".into(),
            Json::Obj(
                r.provenance
                    .iter()
                    .map(|(k, v)| {
                        let p = match v {
                            polysig_gals::Provenance::Static => "static",
                            polysig_gals::Provenance::Dynamic => "dynamic",
                        };
                        (k.to_string(), Json::Str(p.into()))
                    })
                    .collect(),
            ),
        ),
    ])
}

fn parse_summary_json(p: &ParseSummary) -> Json {
    Json::Obj(vec![
        ("normalized".into(), Json::Str(p.normalized.clone())),
        ("components".into(), Json::Num(p.components as i64)),
        ("equations".into(), Json::Num(p.equations as i64)),
    ])
}

fn check_summary_json(c: &CheckSummary) -> Json {
    Json::Obj(vec![
        ("holds".into(), Json::Bool(c.holds)),
        ("states_explored".into(), Json::Num(c.states_explored as i64)),
        ("transitions".into(), Json::Num(c.transitions as i64)),
        ("pruned".into(), Json::Num(c.pruned as i64)),
        ("depth_bounded".into(), Json::Bool(c.depth_bounded)),
        (
            "counterexample_len".into(),
            c.counterexample_len.map_or(Json::Null, |n| Json::Num(n as i64)),
        ),
    ])
}

fn analysis_json(r: &AnalysisReport) -> Json {
    // reuse the analyzer's own JSON rendering (the lint binary's format)
    Json::parse(&r.to_json()).expect("AnalysisReport::to_json emits valid JSON")
}

impl Response {
    /// The response as a JSON document. Serialization is deterministic:
    /// identical responses render to identical bytes.
    pub fn to_json(&self) -> String {
        write_envelope(self.id, self.served, &self.outcome, &render_payload(&self.outcome))
    }
}

/// An outcome's payload as JSON text: the value of a response document's
/// `payload` member.
pub(crate) fn render_payload(outcome: &Outcome) -> String {
    let payload = match outcome {
        Outcome::Parsed(p) => parse_summary_json(p),
        Outcome::Analysis(a) => analysis_json(a),
        Outcome::Estimation(e) => estimation_json(e),
        Outcome::Checked(c) => check_summary_json(c),
        Outcome::Pipeline(p) => {
            let mut members = vec![
                ("parse".to_string(), parse_summary_json(&p.parse)),
                ("analysis".to_string(), analysis_json(&p.analysis)),
            ];
            if let Some(e) = &p.estimation {
                members.push(("estimation".into(), estimation_json(e)));
            }
            if let Some(c) = &p.check {
                members.push(("check".into(), check_summary_json(c)));
            }
            Json::Obj(members)
        }
        Outcome::SourceError { stage, message } => Json::Obj(vec![
            ("stage".into(), Json::Str(stage.clone())),
            ("message".into(), Json::Str(message.clone())),
        ]),
        Outcome::BudgetExceeded { reason } => {
            Json::Obj(vec![("reason".into(), Json::Str(reason.clone()))])
        }
    };
    payload.render()
}

/// The response document around `payload`, the text [`render_payload`]
/// made for `outcome`. The bytes are those of rendering the whole
/// response as one [`Json`] object: the tags need no escaping, and the id
/// goes out as the protocol's signed integer.
pub(crate) fn write_envelope(id: u64, served: Served, outcome: &Outcome, payload: &str) -> String {
    let mut out = String::with_capacity(payload.len() + 64);
    let _ = write!(
        out,
        "{{\"id\":{},\"served\":\"{}\",\"outcome\":\"{}\",\"payload\":",
        id as i64,
        served.as_str(),
        outcome.tag()
    );
    out.push_str(payload);
    out.push('}');
    out
}

/// The response envelope as a client sees it — the generic fields every
/// client needs without decoding the full payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Correlation id.
    pub id: u64,
    /// Cache disposition tag (`cold`/`hit`/`coalesced`).
    pub served: String,
    /// Outcome tag (`parsed`/…/`budget_exceeded`).
    pub outcome: String,
}

impl Envelope {
    /// Decodes the envelope of a response document.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field.
    pub fn from_json(text: &str) -> Result<Envelope, String> {
        let v = Json::parse(text)?;
        Ok(Envelope {
            id: v.get("id").and_then(Json::as_i64).ok_or("missing numeric `id`")? as u64,
            served: v.get("served").and_then(Json::as_str).ok_or("missing `served`")?.to_string(),
            outcome: v
                .get("outcome")
                .and_then(Json::as_str)
                .ok_or("missing `outcome`")?
                .to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_json() {
        let mut r = Request::new(7, RequestKind::Pipeline, "process P { }");
        r.scenario = Some("tick=true a=3\ntick=true\n".into());
        r.property = Some("alarm".into());
        r.params.max_size = Some(64);
        r.threads = 2;
        assert_eq!(Request::from_json(&r.to_json()).unwrap(), r);
        // defaults elide fields
        let bare = Request::new(1, RequestKind::Parse, "x");
        assert!(!bare.to_json().contains("params"));
        assert_eq!(Request::from_json(&bare.to_json()).unwrap(), bare);
    }

    #[test]
    fn unknown_params_are_ignored() {
        // older clients still send the retired `incremental` knob: the
        // request decodes as if it were absent, so it keys and runs alike
        let old = r#"{"id":1,"kind":"estimate","source":"process P { }",
                      "params":{"max_size":8,"incremental":false}}"#;
        let mut want = Request::new(1, RequestKind::Estimate, "process P { }");
        want.params.max_size = Some(8);
        assert_eq!(Request::from_json(old).unwrap(), want);
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn envelope_decodes_what_response_encodes() {
        let resp = Response {
            id: 9,
            served: Served::Hit,
            outcome: std::sync::Arc::new(Outcome::BudgetExceeded {
                reason: "state space exceeds".into(),
            }),
        };
        let env = Envelope::from_json(&resp.to_json()).unwrap();
        assert_eq!(
            env,
            Envelope { id: 9, served: "hit".into(), outcome: "budget_exceeded".into() }
        );
    }
}
