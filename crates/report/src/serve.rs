//! The paper-catalog executor behind `reproduce serve` / `reproduce
//! query`: the request schema mapping JSON queries onto the table,
//! figure, ablation, experiment, profile and scenario generators.
//!
//! Request kinds (all JSON objects; `budget` is an optional cost budget
//! on any of them):
//!
//! | request | result |
//! |---|---|
//! | `{"kind":"table","id":1..6}` | rendered table text |
//! | `{"kind":"figure","id":1..4}` | figure text (Figure 1 as CSV) |
//! | `{"kind":"ablation","name":"governor"\|"pcie"\|"congestion"\|"plane"\|"scaling"}` | ablation table text |
//! | `{"kind":"experiments"}` | the paper-vs-model record, structured |
//! | `{"kind":"conformance"}` | the conformance verdict line |
//! | `{"kind":"devices"}` | clinfo-style model dump, structured |
//! | `{"kind":"profile","workload":W,"system":S}` | profile top table + metrics summary |
//! | `{"kind":"trace","workload":W,"system":S}` | `{"trace":…}`: the same profile run's Chrome trace |
//! | `{"kind":"pcie","system":S,"modes":["h2d","d2h","bidir"]}` | bandwidth triplets per mode (sweep) |
//! | `{"kind":"run","workload":W,"system":S}` | one scenario outcome (typed FOM + detail) and its `text` |
//! | `{"kind":"run","workload":W,"system":S,"chaos":SPEC}` | the same cell under a fault overlay |
//! | `{"kind":"chaos","workload":W,"system":S,"chaos":SPEC}` | `{"text":…,"degraded_no_better":bool}`: the traced baseline/degraded delta report |
//! | `{"kind":"list"}` | the full scenario grid with units and citations |
//! | `{"kind":"report","name":"charts"\|"rooflines"\|"energy"\|"fabric"\|"experiments"\|"conformance"\|"list"}` | what `reproduce <name>` prints, as text |
//!
//! The table, figure, ablation, `experiments`, `conformance`, `devices`,
//! `list` and `report` kinds are rows of [`ARTIFACTS`], the one artifact
//! table: it validates their ids and names, renders them, names the
//! `reproduce` verb that prints each, and seeds the warm corpus. Every
//! `reproduce` verb that prints a paper artifact is a row, so the CLI
//! prints exactly what a served request answers.
//!
//! `SPEC` is a '+'-joined chaos fault-token string (see
//! [`pvc_arch::chaos::GRAMMAR`], e.g. `"xelink:0:0+clock:1.0"`). The
//! spec's canonical spelling is part of the atom key, so degraded
//! variants are first-class atoms: the result store, single-flight
//! dedup and coalescing all treat `{request}` and `{request, chaos}` as
//! distinct, while two spellings of the same spec coalesce.
//!
//! Every scenario-backed atom — the `pcie` sweep's per-mode atoms and
//! the generic `run` atoms — is keyed on its [`pvc_scenario::ScenarioId`]
//! (`run:<workload>@<system>`), so overlapping sweeps and single-scenario
//! runs in one batch coalesce onto the same simulation, across request
//! kinds. A run's `text` is rendered from the typed outcome when the
//! atom runs, so a non-finite FOM prints as `inf` although its JSON
//! `value` is `null`. `profile` and `trace` share one
//! `profile:<id>` atom whose result carries the trace too; `assemble`
//! drops it from a profile answer and keeps only it in a trace answer.
//! Every other kind is a single atom and benefits from single-flight
//! dedup and the result store.
//!
//! Errors are typed [`ScenarioError`]s end to end inside this module;
//! they convert to `String` only at the `pvc_serve::Executor` trait
//! boundary.

use crate::scenarios::registry;
use crate::{ablations, energy, experiments, fabric_matrix, figdata, profile, tables};
use pvc_arch::System;
use pvc_core::json::{Json, ToJson};
use pvc_memsim::LatsConfig;
use pvc_scenario::{ChaosSpec, Ctx, Outcome, Scenario, ScenarioError};
use pvc_serve::{Atom, Executor, Request, ServeConfig, Service};

/// The executor serving the paper catalog.
#[derive(Debug, Default, Clone, Copy)]
pub struct CatalogExecutor;

/// Deterministic cost estimates in abstract units (roughly: simulated
/// passes times their relative weight). Compared against request
/// budgets at admission.
fn kind_cost(req: &Request) -> u64 {
    match req.kind() {
        "devices" | "list" => 1,
        "table" => 3,
        "figure" => match req.get("id") {
            Some(Json::Int(1)) => 5, // Figure 1 runs the lats cache sweep
            _ => 3,
        },
        "ablation" | "run" => 4,
        // Two traced runs of one cell; a traced profile run.
        "chaos" | "profile" | "trace" => 8,
        "pcie" => {
            let modes = req.get("modes").and_then(Json::as_array).map_or(1, <[Json]>::len);
            2 * modes.max(1) as u64
        }
        "experiments" | "conformance" | "report" => 12,
        _ => 1,
    }
}

/// Parses the request's `system` field through the one shared
/// [`System::from_str`] parser; absent means Aurora.
fn system_from(req: &Request) -> Result<System, ScenarioError> {
    match req.get("system") {
        None => Ok(System::Aurora),
        Some(Json::Str(s)) => Ok(s.parse::<System>()?),
        Some(other) => Err(ScenarioError::bad_request(format!(
            "system must be a string, got {}",
            other.compact()
        ))),
    }
}

fn str_field(req: &Request, field: &str, hint: &str) -> Result<String, ScenarioError> {
    match req.get(field) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(ScenarioError::bad_request(format!("{hint} needs a string '{field}'"))),
    }
}

fn int_field(req: &Request, field: &str, lo: i64, hi: i64) -> Result<i64, ScenarioError> {
    match req.get(field) {
        Some(Json::Int(n)) if (lo..=hi).contains(n) => Ok(*n),
        Some(other) => Err(ScenarioError::bad_request(format!(
            "'{field}' must be an integer in {lo}..={hi}, got {}",
            other.compact()
        ))),
        None => Err(ScenarioError::bad_request(format!(
            "missing '{field}' field ({lo}..={hi})"
        ))),
    }
}

/// Parses and validates the optional `chaos` field: a fault-spec string
/// per the [`pvc_arch::chaos::GRAMMAR`]. An empty spec is the baseline
/// (no overlay), so `"chaos": ""` produces the same atom as no field.
fn chaos_from(req: &Request) -> Result<Option<ChaosSpec>, ScenarioError> {
    match req.get("chaos") {
        None => Ok(None),
        Some(Json::Str(s)) => {
            let spec = ChaosSpec::parse(s).map_err(|e| {
                ScenarioError::bad_request(format!("invalid chaos spec '{s}': {e}"))
            })?;
            Ok((!spec.is_empty()).then_some(spec))
        }
        Some(other) => Err(ScenarioError::bad_request(format!(
            "chaos must be a fault-spec string, got {}",
            other.compact()
        ))),
    }
}

/// Sheds a spec `system` cannot apply at admission with the typed
/// error, so an atom that reaches execution can always apply.
fn applies(spec: &ChaosSpec, system: System) -> Result<(), ScenarioError> {
    spec.apply(system.node()).map(drop).map_err(|e| {
        ScenarioError::bad_request(format!(
            "chaos spec '{}' rejected for {}: {e}",
            spec.canonical(),
            system.cli_name()
        ))
    })
}

/// One atom per scenario, keyed on the [`pvc_scenario::ScenarioId`]
/// grid key so identical scenarios coalesce across request kinds. A
/// chaos overlay joins the key in canonical spelling
/// (`run:<slug>@<system>+chaos:<spec>`): degraded variants never
/// coalesce with the baseline or with differently-degraded atoms. `op`
/// is `run` or `chaos` (the baseline/degraded delta report).
fn scenario_atom(op: &str, slug: &str, system: System, chaos: Option<&ChaosSpec>) -> Atom {
    let mut pairs = vec![
        ("op", Json::str(op)),
        ("workload", Json::str(slug)),
        ("system", Json::str(system.cli_name())),
    ];
    let mut id = format!("{op}:{slug}@{}", system.cli_name());
    if let Some(spec) = chaos {
        let canon = spec.canonical();
        id.push_str("+chaos:");
        id.push_str(&canon);
        pairs.push(("chaos", Json::Str(canon)));
    }
    Atom::new(id, Json::obj(pairs))
}

/// How a request names one artifact of its kind.
#[derive(Debug, Clone, Copy)]
enum Select {
    /// The kind alone names it: `{"kind":"devices"}`.
    Only,
    /// `{"kind":K,"id":N}`.
    Id(i64),
    /// `{"kind":K,"name":S}`.
    Name(&'static str),
}

/// One paper artifact the catalog serves: the `reproduce` verb that
/// prints it, its canonical request document ([`Artifact::request`])
/// and its renderer.
pub struct Artifact {
    /// The `reproduce` verb that prints this row. Four ablations share
    /// `ablations`; `None` marks a row served only as a request.
    pub verb: Option<&'static str>,
    /// The request kind.
    pub kind: &'static str,
    select: Select,
    render: Render,
}

impl Artifact {
    /// `{head: kind}` plus the selector field, in that order.
    fn doc(&self, head: &str) -> Json {
        let mut pairs = vec![(head, Json::str(self.kind))];
        match self.select {
            Select::Only => {}
            Select::Id(n) => pairs.push(("id", Json::Int(n))),
            Select::Name(s) => pairs.push(("name", Json::str(s))),
        }
        Json::obj(pairs)
    }

    /// The canonical request document, e.g. `{"kind":"table","id":3}`.
    pub fn request(&self) -> Json {
        self.doc("kind")
    }

    /// The single atom this artifact's request decomposes into.
    fn atom(&self) -> Atom {
        let params = self.doc("op");
        Atom::new(format!("{}:{}", self.kind, params.compact()), params)
    }

    /// True when `doc` (a request body or atom params of this kind)
    /// carries this row's selector.
    fn selects(&self, doc: &Json) -> bool {
        match self.select {
            Select::Only => true,
            Select::Id(n) => doc.get("id") == Some(&Json::Int(n)),
            Select::Name(s) => doc.get("name").and_then(Json::as_str) == Some(s),
        }
    }
}

type Render = fn() -> Result<Json, ScenarioError>;

const fn row(
    verb: Option<&'static str>,
    kind: &'static str,
    select: Select,
    render: Render,
) -> Artifact {
    Artifact { verb, kind, select, render }
}

fn text(s: String) -> Result<Json, ScenarioError> {
    Ok(Json::obj(vec![("text", Json::Str(s))]))
}

fn figure1() -> Result<Json, ScenarioError> {
    let csv = figdata::figure1_csv(&LatsConfig::default());
    Ok(Json::obj(vec![("csv", Json::Str(csv))]))
}

fn conformance_verdict() -> Result<Json, ScenarioError> {
    let line = crate::conformance::verdict().map_err(ScenarioError::BadRequest)?;
    Ok(Json::obj(vec![("verdict", Json::Str(line.trim_end().to_string()))]))
}

/// Both PVC systems' all-pairs bandwidth matrices, each followed by a
/// blank line.
fn fabric_matrices() -> String {
    System::PVC
        .iter()
        .map(|&sys| fabric_matrix::render_matrix(sys) + "\n")
        .collect()
}

/// Every artifact the catalog renders, in warm-corpus order: the only
/// list of which tables, figures and ablations exist. Request
/// validation, atom execution, the `reproduce` artifact verbs and
/// `reproduce warm` all read it.
pub static ARTIFACTS: [Artifact; 26] = [
    row(Some("table1"), "table", Select::Id(1), || text(tables::render_table1())),
    row(Some("table2"), "table", Select::Id(2), || text(tables::render_table2())),
    row(Some("table3"), "table", Select::Id(3), || text(tables::render_table3())),
    row(Some("table4"), "table", Select::Id(4), || text(tables::render_table4())),
    row(Some("table5"), "table", Select::Id(5), || text(tables::render_table5())),
    row(Some("table6"), "table", Select::Id(6), || text(tables::render_table6())),
    row(Some("fig1"), "figure", Select::Id(1), figure1),
    row(Some("fig2"), "figure", Select::Id(2), || text(figdata::render_figure2())),
    row(Some("fig3"), "figure", Select::Id(3), || text(figdata::render_figure3())),
    row(Some("fig4"), "figure", Select::Id(4), || text(figdata::render_figure4())),
    row(Some("ablations"), "ablation", Select::Name("governor"), || {
        text(ablations::governor_ablation().render())
    }),
    row(Some("ablations"), "ablation", Select::Name("pcie"), || {
        text(ablations::pcie_ablation().render())
    }),
    row(Some("ablations"), "ablation", Select::Name("congestion"), || {
        text(ablations::congestion_ablation().render())
    }),
    row(Some("ablations"), "ablation", Select::Name("plane"), || {
        text(ablations::plane_ablation().render())
    }),
    row(Some("scaling"), "ablation", Select::Name("scaling"), || {
        text(ablations::scaling_report().render())
    }),
    row(Some("json"), "experiments", Select::Only, || Ok(experiments::collect().to_json())),
    row(None, "conformance", Select::Only, conformance_verdict),
    row(Some("devices"), "devices", Select::Only, || Ok(pvc_arch::query::systems())),
    row(None, "list", Select::Only, || Ok(list_scenarios())),
    row(Some("charts"), "report", Select::Name("charts"), || {
        text(figdata::render_figures_ascii())
    }),
    row(Some("rooflines"), "report", Select::Name("rooflines"), || {
        text(tables::render_rooflines())
    }),
    row(Some("energy"), "report", Select::Name("energy"), || {
        text(energy::render_energy_table())
    }),
    row(Some("fabric"), "report", Select::Name("fabric"), || text(fabric_matrices())),
    row(Some("experiments"), "report", Select::Name("experiments"), || {
        text(experiments::markdown())
    }),
    row(Some("conformance"), "report", Select::Name("conformance"), || {
        text(crate::conformance::markdown().map_err(ScenarioError::BadRequest)?)
    }),
    row(Some("list"), "report", Select::Name("list"), || text(list_table())),
];

/// The rows `reproduce <verb>` prints: those naming `verb`, and for
/// `all` every table and figure followed by the experiment record.
pub fn verb_rows(verb: &str) -> Vec<&'static Artifact> {
    ARTIFACTS
        .iter()
        .filter(|a| match verb {
            "all" => matches!(a.kind, "table" | "figure") || a.verb == Some("experiments"),
            _ => a.verb == Some(verb),
        })
        .collect()
}

/// The [`ARTIFACTS`] row `req` names, or `None` when its kind is not an
/// artifact kind. A table or figure id outside the table's range, or
/// an unknown ablation name, is a typed bad request.
fn artifact_for(req: &Request) -> Result<Option<&'static Artifact>, ScenarioError> {
    let kind = req.kind();
    let rows = || ARTIFACTS.iter().filter(move |a| a.kind == kind);
    let Some(first) = rows().next() else {
        return Ok(None);
    };
    match first.select {
        Select::Only => {}
        // A kind's ids run 1..=n in table order.
        Select::Id(_) => {
            int_field(req, "id", 1, rows().count() as i64)?;
        }
        Select::Name(_) => {
            str_field(req, "name", kind)?;
        }
    }
    // Only a name can miss here.
    let found = rows().find(|a| a.selects(req.canon()));
    found.map(Some).ok_or_else(|| {
        let name = req.get("name").and_then(Json::as_str).unwrap_or_default();
        ScenarioError::bad_request(format!("unknown {kind} '{name}'"))
    })
}

/// Serves `docs` as one batch through a fresh catalog service (default
/// knobs, no store): each request's result, or its error envelope as
/// `Err`. The `reproduce` verbs that print a catalog answer call this.
pub fn serve_requests(docs: Vec<Json>) -> Vec<Result<Json, Json>> {
    let service = Service::new(CatalogExecutor, ServeConfig::default());
    service
        .answer_batch(docs.into_iter().map(Request::from_json).collect())
        .into_iter()
        .map(|answer| match answer.result().map(pvc_core::json::parse) {
            Some(Ok(result)) => Ok(result),
            _ => Err(answer.to_json()),
        })
        .collect()
}

/// Serves `rows` as one batch and returns what `reproduce` prints for
/// each: the result's `text`, else its `csv`, else its pretty JSON. The
/// first error envelope comes back pretty-printed as `Err`.
pub fn serve_artifacts(rows: &[&Artifact]) -> Result<Vec<String>, String> {
    serve_requests(rows.iter().map(|a| a.request()).collect())
        .into_iter()
        .map(|served| {
            let result = served.map_err(|envelope| envelope.pretty())?;
            Ok(match (result.get("text"), result.get("csv")) {
                (Some(Json::Str(s)), _) | (None, Some(Json::Str(s))) => s.clone(),
                _ => result.pretty(),
            })
        })
        .collect()
}

fn atoms_typed(req: &Request) -> Result<Vec<Atom>, ScenarioError> {
    // Chaos overlays only make sense on scenario runs; a stray field on
    // any other kind is a typed rejection, not a silent ignore.
    if req.get("chaos").is_some() && !matches!(req.kind(), "run" | "chaos") {
        return Err(ScenarioError::bad_request(format!(
            "'chaos' is only supported on run requests (and the chaos kind), not '{}'",
            req.kind()
        )));
    }
    if let Some(artifact) = artifact_for(req)? {
        return Ok(vec![artifact.atom()]);
    }
    match req.kind() {
        // A trace is the profile run's Chrome trace: both kinds share
        // one atom, and `assemble` projects each kind's fields from it.
        kind @ ("profile" | "trace") => {
            let sys = system_from(req)?;
            let workload = str_field(req, "workload", kind)?;
            // Resolve through the registry: typed unknown-name /
            // unregistered-pair errors carrying the valid catalog.
            let scenario = registry().profile(&workload, sys)?;
            let params = Json::obj(vec![
                ("op", Json::str("profile")),
                ("system", Json::str(sys.cli_name())),
                ("workload", Json::str(workload)),
            ]);
            Ok(vec![Atom::new(
                format!("profile:{}", scenario.id()),
                params,
            )])
        }
        "run" => {
            let sys = system_from(req)?;
            let workload = str_field(req, "workload", "run")?;
            let scenario = registry().get(&workload, sys)?;
            let chaos = chaos_from(req)?;
            if let Some(spec) = &chaos {
                applies(spec, sys)?;
            }
            Ok(vec![scenario_atom("run", &scenario.id().slug(), sys, chaos.as_ref())])
        }
        "chaos" => {
            let sys = system_from(req)?;
            let workload = str_field(req, "workload", "chaos")?;
            str_field(req, "chaos", "chaos")?;
            let spec = chaos_from(req)?.unwrap_or_default();
            let scenario = registry().get(&workload, sys)?;
            applies(&spec, sys)?;
            Ok(vec![scenario_atom("chaos", &scenario.id().slug(), sys, Some(&spec))])
        }
        "pcie" => {
            let sys = system_from(req)?;
            let Some(modes) = req.get("modes").and_then(Json::as_array) else {
                return Err(ScenarioError::bad_request("pcie sweep needs a 'modes' array"));
            };
            if modes.is_empty() {
                return Err(ScenarioError::bad_request("pcie sweep needs at least one mode"));
            }
            modes
                .iter()
                .map(|m| {
                    let name = m
                        .as_str()
                        .ok_or_else(|| ScenarioError::bad_request("modes must be strings"))?;
                    if !["h2d", "d2h", "bidir"].contains(&name) {
                        return Err(ScenarioError::bad_request(format!(
                            "unknown pcie mode '{name}'; expected h2d, d2h or bidir"
                        )));
                    }
                    let slug = format!("pcie-{name}");
                    registry().get(&slug, sys)?; // typed unregistered-pair check
                    Ok(scenario_atom("run", &slug, sys, None))
                })
                .collect()
        }
        other => Err(ScenarioError::bad_request(format!(
            "unknown request kind '{other}'; expected table, figure, ablation, experiments, \
             conformance, devices, profile, trace, pcie, run, chaos, list or report"
        ))),
    }
}

/// The cell a `run` or `chaos` atom names: its slug, system and
/// overlay (absent for a baseline run).
fn atom_cell(atom: &Atom) -> Result<(&str, System, Option<ChaosSpec>), ScenarioError> {
    let slug = atom
        .params
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| ScenarioError::bad_request("scenario atom missing workload"))?;
    let sys: System = atom
        .params
        .get("system")
        .and_then(Json::as_str)
        .unwrap_or("aurora")
        .parse()?;
    let chaos = match atom.params.get("chaos").and_then(Json::as_str) {
        Some(s) => Some(ChaosSpec::parse(s).map_err(|e| {
            ScenarioError::bad_request(format!("chaos atom spec '{s}': {e}"))
        })?),
        None => None,
    };
    Ok((slug, sys, chaos))
}

/// What `reproduce run` prints for one outcome: the FOM with its
/// direction, the citation, then every detail entry.
fn run_text(scenario: &dyn Scenario, out: &Outcome) -> String {
    let dir = if scenario.fom_kind().higher_is_better() {
        "higher is better"
    } else {
        "lower is better"
    };
    let mut text = format!("{}: {} ({dir})\n", out.id, out.fom);
    text.push_str(&format!("  citation: {}\n", scenario.citation()));
    for (key, value) in &out.detail {
        text.push_str(&format!("  {key} = {value}\n"));
    }
    text
}

/// Runs one scenario atom and packages the typed outcome.
fn run_scenario_atom(atom: &Atom) -> Result<Json, ScenarioError> {
    let (slug, sys, chaos) = atom_cell(atom)?;
    let scenario = registry().get(slug, sys)?;
    // A local work registry collects the solver-effort counters the
    // simulation exports through the ambient sink (`simrt.*`), so every
    // run response carries its own attribution — recomputing the same
    // scenario always exports the same counts, keeping the response
    // cacheable and byte-deterministic.
    let work = pvc_obs::Metrics::new();
    let out = {
        let _observing = work.install_ambient();
        // The overlay installs here, inside atom execution, because
        // atoms run on `pvc_core::par` worker threads — a thread-local
        // overlay set at admission would never reach them.
        match &chaos {
            Some(spec) => pvc_scenario::run_overlaid(registry(), slug, sys, spec)?,
            None => scenario.run(&mut Ctx::quiet()),
        }
    };
    let detail: Vec<(String, Json)> = out
        .detail
        .iter()
        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
        .collect();
    let mut fields = vec![
        ("workload", Json::str(slug)),
        ("system", Json::str(sys.cli_name())),
        ("value", Json::Num(out.fom.value())),
        ("unit", Json::str(scenario.unit())),
        ("higher_is_better", Json::Bool(scenario.fom_kind().higher_is_better())),
        ("citation", Json::str(scenario.citation())),
        ("detail", Json::Obj(detail)),
    ];
    if let Some(spec) = &chaos {
        fields.push(("chaos", Json::Str(spec.canonical())));
    }
    // Rendered from the typed outcome, not from the JSON numbers above,
    // which write non-finite values as `null`.
    fields.push(("text", Json::Str(run_text(scenario, &out))));
    fields.push((
        "work",
        Json::Obj(
            work.counters("")
                .into_iter()
                .map(|(k, v)| (k, Json::Int(v as i64)))
                .collect(),
        ),
    ));
    Ok(Json::obj(fields))
}

/// Runs one cell healthy and under its overlay, both traced, and
/// answers the delta report with the monotonicity verdict.
fn chaos_atom(atom: &Atom) -> Result<Json, ScenarioError> {
    let (slug, sys, chaos) = atom_cell(atom)?;
    let run = pvc_scenario::run_with_chaos(registry(), slug, sys, &chaos.unwrap_or_default())?;
    Ok(Json::obj(vec![
        ("text", Json::Str(run.report())),
        ("degraded_no_better", Json::Bool(run.degraded_no_better())),
    ]))
}

/// The full grid as the `reproduce list` table: one line per scenario
/// with its unit, direction and citation, the count, then the chaos
/// spec grammar every scenario accepts.
fn list_table() -> String {
    let reg = registry();
    let mut out = format!("{:<28} {:<10} {:<5} {}\n", "scenario", "unit", "dir", "citation");
    for s in reg.iter() {
        let dir = if s.fom_kind().higher_is_better() { "up" } else { "down" };
        out.push_str(&format!(
            "{:<28} {:<10} {:<5} {}\n",
            s.id().key(),
            s.unit(),
            dir,
            s.citation()
        ));
    }
    out.push_str(&format!("{} scenarios registered\n", reg.len()));
    out.push_str(
        "\nevery scenario accepts a chaos overlay: `reproduce chaos <workload> <system> <spec>`\n",
    );
    out.push_str("spec grammar ('+'-joined fault tokens):\n");
    for line in pvc_arch::chaos::GRAMMAR {
        out.push_str(&format!("  {line}\n"));
    }
    out
}

/// Renders the full grid as structured JSON.
fn list_scenarios() -> Json {
    let entries: Vec<Json> = registry()
        .iter()
        .map(|s| {
            let id = s.id();
            Json::obj(vec![
                ("workload", Json::Str(id.slug())),
                ("system", Json::str(id.system.cli_name())),
                ("unit", Json::str(s.unit())),
                ("higher_is_better", Json::Bool(s.fom_kind().higher_is_better())),
                ("citation", Json::str(s.citation())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("count", Json::Int(registry().len() as i64)),
        ("scenarios", Json::Arr(entries)),
    ])
}

fn execute_atom_typed(atom: &Atom) -> Result<Json, ScenarioError> {
    let op = atom
        .params
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ScenarioError::bad_request("atom missing op"))?;
    if let Some(artifact) = ARTIFACTS.iter().find(|a| a.kind == op && a.selects(&atom.params)) {
        return (artifact.render)();
    }
    match op {
        "profile" => {
            let sys: System = atom
                .params
                .get("system")
                .and_then(Json::as_str)
                .unwrap_or("aurora")
                .parse()?;
            let Some(workload) = atom.params.get("workload").and_then(Json::as_str) else {
                return Err(ScenarioError::bad_request("profile atom missing workload"));
            };
            let artifact = profile::run(workload, sys)?;
            let events = artifact.validate().map_err(ScenarioError::BadRequest)?;
            Ok(Json::obj(vec![
                ("workload", Json::str(workload)),
                ("system", Json::str(sys.cli_name())),
                ("trace_events", Json::Int(events as i64)),
                ("top", Json::Str(artifact.top)),
                ("summary", Json::Str(artifact.summary)),
                ("trace", Json::Str(artifact.trace_json)),
            ]))
        }
        "run" => run_scenario_atom(atom),
        "chaos" => chaos_atom(atom),
        other => Err(ScenarioError::bad_request(format!("unknown atom op '{other}'"))),
    }
}

impl Executor for CatalogExecutor {
    fn cost(&self, req: &Request) -> u64 {
        kind_cost(req)
    }

    fn atoms(&self, req: &Request) -> Result<Vec<Atom>, String> {
        atoms_typed(req).map_err(String::from)
    }

    fn execute_atom(&self, atom: &Atom) -> Result<Json, String> {
        execute_atom_typed(atom).map_err(String::from)
    }

    fn work_counters(&self, atom: &Atom, result: &Json) -> Vec<(String, u64)> {
        // Scenario runs embed their solver-effort attribution in the
        // result's `work` object; merge it into the service metrics so
        // a stats snapshot shows where the simulation time went. Pure
        // in (atom, result): cached hits re-run nothing and add none.
        if atom.params.get("op").and_then(Json::as_str) != Some("run") {
            return Vec::new();
        }
        match result.get("work") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| match v {
                    Json::Int(n) if *n >= 0 => Some((k.clone(), *n as u64)),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    fn assemble(&self, req: &Request, mut parts: Vec<Json>) -> Result<Json, String> {
        if req.kind() == "pcie" {
            let modes = req
                .get("modes")
                .and_then(Json::as_array)
                .ok_or("pcie request lost its modes")?;
            // Project each scenario outcome onto the sweep's historical
            // triplet shape (GB/s at the three scaling levels).
            let pairs = modes
                .iter()
                .zip(parts)
                .map(|(m, part)| {
                    let gbs = |key: &str| {
                        part.get("detail")
                            .and_then(|d| d.get(key))
                            .and_then(Json::as_num)
                            .map_or(Json::Null, |v| Json::Num(v / 1e9))
                    };
                    let triplet = Json::obj(vec![
                        ("one_stack_gbs", gbs("one_stack")),
                        ("one_pvc_gbs", gbs("one_pvc")),
                        ("full_node_gbs", gbs("full_node")),
                    ]);
                    (m.as_str().unwrap_or("?").to_string(), triplet)
                })
                .collect();
            return Ok(Json::obj(vec![
                (
                    "system",
                    Json::str(system_from(req).map_err(String::from)?.cli_name()),
                ),
                ("modes", Json::Obj(pairs)),
            ]));
        }
        let part = parts.pop().ok_or("empty result")?;
        // The shared profile atom carries the trace: a profile answers
        // without it, a trace answers with it alone.
        Ok(match (req.kind(), part) {
            ("profile", Json::Obj(pairs)) => {
                Json::Obj(pairs.into_iter().filter(|(k, _)| k != "trace").collect())
            }
            ("trace", Json::Obj(pairs)) => {
                Json::Obj(pairs.into_iter().filter(|(k, _)| k == "trace").collect())
            }
            (_, part) => part,
        })
    }
}

/// The canned request corpus exercised by CI and the benches: one per
/// kind family, cheap enough to run on every gate.
pub const CANNED_REQUESTS: &[&str] = &[
    r#"{"kind":"table","id":2}"#,
    r#"{"kind":"figure","id":3}"#,
    r#"{"kind":"pcie","system":"aurora","modes":["h2d","d2h"]}"#,
    r#"{"kind":"run","workload":"stream-triad","system":"aurora","chaos":"hbm:0.5"}"#,
];

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_serve::{ServeConfig, Service};

    fn service() -> Service<CatalogExecutor> {
        Service::new(CatalogExecutor, ServeConfig::default())
    }

    #[test]
    fn table_request_serves_rendered_table() {
        let s = service();
        let r = s.handle_lines(&[r#"{"kind":"table","id":2}"#]).remove(0);
        let text = r
            .get("result")
            .and_then(|b| b.get("text"))
            .and_then(Json::as_str)
            .expect("table text");
        assert!(text.contains("DGEMM"), "{text}");
    }

    #[test]
    fn canned_corpus_is_deterministic_and_cacheable() {
        let s = service();
        let cold: Vec<String> = s
            .handle_lines(CANNED_REQUESTS)
            .iter()
            .map(Json::canonical)
            .collect();
        let warm: Vec<String> = s
            .handle_lines(CANNED_REQUESTS)
            .iter()
            .map(Json::canonical)
            .collect();
        assert_eq!(cold, warm, "cache must not perturb response bytes");
        assert_eq!(s.metrics().counter("serve.cache.hit"), CANNED_REQUESTS.len() as u64);
        for c in &cold {
            assert!(!c.contains("\"error\""), "{c}");
        }
    }

    #[test]
    fn pcie_sweeps_coalesce_across_requests() {
        let s = service();
        let a = r#"{"kind":"pcie","system":"aurora","modes":["h2d","d2h"]}"#;
        let b = r#"{"kind":"pcie","system":"aurora","modes":["d2h","bidir"]}"#;
        let responses = s.handle_lines(&[a, b]);
        assert_eq!(s.metrics().counter("serve.atoms.requested"), 4);
        assert_eq!(s.metrics().counter("serve.atoms.executed"), 3, "shared d2h runs once");
        // The shared atom's bytes are identical in both responses.
        let d2h = |r: &Json| {
            r.get("result")
                .and_then(|b| b.get("modes"))
                .and_then(|m| m.get("d2h"))
                .expect("d2h triplet")
                .canonical()
        };
        assert_eq!(d2h(&responses[0]), d2h(&responses[1]));
    }

    #[test]
    fn run_and_pcie_sweep_coalesce_on_scenario_id() {
        // The generic run kind and the pcie sweep resolve to the SAME
        // ScenarioId-keyed atom, so the simulation runs once.
        let s = service();
        let sweep = r#"{"kind":"pcie","system":"aurora","modes":["h2d"]}"#;
        let run = r#"{"kind":"run","workload":"pcie-h2d","system":"aurora"}"#;
        let responses = s.handle_lines(&[sweep, run]);
        assert_eq!(s.metrics().counter("serve.atoms.requested"), 2);
        assert_eq!(
            s.metrics().counter("serve.atoms.executed"),
            1,
            "pcie-h2d@aurora must coalesce across request kinds"
        );
        let value = responses[1]
            .get("result")
            .and_then(|r| r.get("value"))
            .and_then(Json::as_num)
            .expect("run value");
        let swept = responses[0]
            .get("result")
            .and_then(|r| r.get("modes"))
            .and_then(|m| m.get("h2d"))
            .and_then(|t| t.get("full_node_gbs"))
            .and_then(Json::as_num)
            .expect("sweep full-node GB/s");
        assert!((value - swept).abs() < 1e-9, "{value} vs {swept}");
    }

    #[test]
    fn run_responses_carry_typed_units() {
        let s = service();
        let r = s
            .handle_lines(&[r#"{"kind":"run","workload":"stream-triad","system":"dawn"}"#])
            .remove(0);
        let result = r.get("result").expect("result");
        assert_eq!(result.get("unit").and_then(Json::as_str), Some("GB/s"));
        assert_eq!(
            result.get("citation").and_then(Json::as_str),
            Some("Table II, §IV-B3")
        );
        assert!(result
            .get("detail")
            .and_then(|d| d.get("one_stack"))
            .and_then(Json::as_num)
            .is_some());
    }

    #[test]
    fn list_reports_the_whole_grid() {
        let s = service();
        let r = s.handle_lines(&[r#"{"kind":"list"}"#]).remove(0);
        let result = r.get("result").expect("result");
        let count = result.get("count").and_then(|c| match c {
            Json::Int(n) => Some(*n),
            _ => None,
        });
        assert_eq!(count, Some(registry().len() as i64));
        let arr = result.get("scenarios").and_then(Json::as_array).expect("scenarios");
        assert_eq!(arr.len(), registry().len());
    }

    #[test]
    fn bad_catalog_requests_fail_with_guidance() {
        let s = service();
        let cases = [
            (r#"{"kind":"table","id":9}"#, "1..=6"),
            (r#"{"kind":"figure","id":0}"#, "1..=4"),
            (r#"{"kind":"table"}"#, "missing 'id' field (1..=6)"),
            (r#"{"kind":"ablation","name":"warp"}"#, "unknown ablation 'warp'"),
            (r#"{"kind":"ablation"}"#, "ablation needs a string 'name'"),
            (r#"{"kind":"warp"}"#, "unknown request kind"),
            (r#"{"kind":"profile","workload":"nope"}"#, "unknown profile workload"),
            (r#"{"kind":"pcie","system":"aurora","modes":["sideways"]}"#, "unknown pcie mode"),
            (r#"{"kind":"profile","workload":"pcie-h2d","system":"h100"}"#, "not registered"),
            (r#"{"kind":"profile","workload":"pcie-h2d","system":"summit"}"#, "unknown system"),
            (r#"{"kind":"run","workload":"warpdrive"}"#, "unknown workload"),
            (r#"{"kind":"run","workload":"stream-triad","system":"h100"}"#, "not registered"),
            (r#"{"kind":"report","name":"warp"}"#, "unknown report 'warp'"),
            (r#"{"kind":"trace","workload":"nope"}"#, "unknown profile workload"),
            (r#"{"kind":"chaos","workload":"stream-triad"}"#, "chaos needs a string 'chaos'"),
            (
                r#"{"kind":"chaos","workload":"stream-triad","chaos":"warp:9"}"#,
                "unknown fault 'warp'",
            ),
            (
                r#"{"kind":"chaos","workload":"stream-triad","chaos":"stackdown:12"}"#,
                "rejected for aurora",
            ),
        ];
        for (line, needle) in cases {
            let r = s.handle_lines(&[line]).remove(0);
            let detail = r
                .get("error")
                .and_then(|e| e.get("detail"))
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{line} should fail: {}", r.pretty()));
            assert!(detail.contains(needle), "{line}: {detail}");
        }
    }

    /// Every artifact row served through the service prints what its
    /// renderer prints. Figure 1 is left to `figdata`'s digest pin.
    #[test]
    fn every_served_artifact_equals_its_renderer() {
        let verdict = crate::conformance::verdict().expect("conformance holds");
        let verdict = Json::obj(vec![("verdict", Json::Str(verdict.trim_end().to_string()))]);
        let expected: Vec<(&str, String)> = vec![
            (r#"{"kind":"table","id":1}"#, tables::render_table1()),
            (r#"{"kind":"table","id":2}"#, tables::render_table2()),
            (r#"{"kind":"table","id":3}"#, tables::render_table3()),
            (r#"{"kind":"table","id":4}"#, tables::render_table4()),
            (r#"{"kind":"table","id":5}"#, tables::render_table5()),
            (r#"{"kind":"table","id":6}"#, tables::render_table6()),
            (r#"{"kind":"figure","id":2}"#, figdata::render_figure2()),
            (r#"{"kind":"figure","id":3}"#, figdata::render_figure3()),
            (r#"{"kind":"figure","id":4}"#, figdata::render_figure4()),
            (r#"{"kind":"ablation","name":"governor"}"#, ablations::governor_ablation().render()),
            (r#"{"kind":"ablation","name":"pcie"}"#, ablations::pcie_ablation().render()),
            (r#"{"kind":"ablation","name":"congestion"}"#, ablations::congestion_ablation().render()),
            (r#"{"kind":"ablation","name":"plane"}"#, ablations::plane_ablation().render()),
            (r#"{"kind":"ablation","name":"scaling"}"#, ablations::scaling_report().render()),
            (r#"{"kind":"experiments"}"#, experiments::collect().to_json().pretty()),
            (r#"{"kind":"conformance"}"#, verdict.pretty()),
            (r#"{"kind":"devices"}"#, pvc_arch::query::systems_json()),
            (r#"{"kind":"list"}"#, list_scenarios().pretty()),
            (r#"{"kind":"report","name":"charts"}"#, figdata::render_figures_ascii()),
            (r#"{"kind":"report","name":"rooflines"}"#, tables::render_rooflines()),
            (r#"{"kind":"report","name":"energy"}"#, energy::render_energy_table()),
            (r#"{"kind":"report","name":"fabric"}"#, fabric_matrices()),
            (r#"{"kind":"report","name":"experiments"}"#, experiments::markdown()),
            (
                r#"{"kind":"report","name":"conformance"}"#,
                crate::conformance::markdown().expect("conformance holds"),
            ),
            (r#"{"kind":"report","name":"list"}"#, list_table()),
        ];
        let rows: Vec<&Artifact> = ARTIFACTS.iter().filter(|a| a.verb != Some("fig1")).collect();
        let docs: Vec<String> = rows.iter().map(|a| a.request().compact()).collect();
        let named: Vec<&str> = expected.iter().map(|(doc, _)| *doc).collect();
        assert_eq!(docs, named, "every row but Figure 1 has a named renderer");
        let served = serve_artifacts(&rows).expect("every artifact serves");
        for ((doc, want), got) in expected.iter().zip(&served) {
            assert_eq!(got, want, "{doc}");
        }
    }

    /// A profile and a trace of one workload share one simulation: the
    /// profile answers without the trace, the trace with it alone.
    #[test]
    fn profile_and_trace_share_one_atom() {
        let s = service();
        let profile = r#"{"kind":"profile","workload":"pcie-h2d","system":"aurora"}"#;
        let trace = r#"{"kind":"trace","workload":"pcie-h2d","system":"aurora"}"#;
        let answers = s.handle_lines(&[profile, trace]);
        assert_eq!(s.metrics().counter("serve.atoms.requested"), 2);
        assert_eq!(s.metrics().counter("serve.atoms.executed"), 1);
        let keys = |i: usize| match answers[i].get("result") {
            Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("no result object: {other:?}"),
        };
        assert_eq!(keys(0), ["workload", "system", "trace_events", "top", "summary"]);
        assert_eq!(keys(1), ["trace"]);
        let want = profile::run("pcie-h2d", System::Aurora).unwrap().trace_json;
        let served = answers[1].get("result").and_then(|r| r.get("trace"));
        assert_eq!(served.and_then(Json::as_str), Some(want.as_str()));
    }

    /// A chaos request answers the delta report and its verdict.
    #[test]
    fn chaos_requests_answer_the_delta_report() {
        let s = service();
        let ok = r#"{"kind":"chaos","workload":"stream-triad","system":"aurora","chaos":"hbm:0.5"}"#;
        let r = s.handle_lines(&[ok]).remove(0);
        let result = r.get("result").expect("a chaos result");
        let text = result.get("text").and_then(Json::as_str).expect("report text");
        assert!(text.contains("  delta:    -50.0%\n"), "{text}");
        assert_eq!(result.get("degraded_no_better"), Some(&Json::Bool(true)));
    }

    /// The ISSUE's acceptance property: cached and recomputed responses
    /// are byte-identical for every workload in the profile catalog.
    #[test]
    fn all_catalog_workloads_cache_byte_identically() {
        let s = service();
        let catalog = profile::workloads(pvc_arch::System::Aurora);
        let lines: Vec<String> = catalog
            .iter()
            .map(|(name, _)| format!(r#"{{"kind":"profile","workload":"{name}"}}"#))
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let cold: Vec<String> = s.handle_lines(&refs).iter().map(Json::canonical).collect();
        let warm: Vec<String> = s.handle_lines(&refs).iter().map(Json::canonical).collect();
        assert_eq!(s.metrics().counter("serve.cache.hit"), lines.len() as u64);
        for ((c, w), (name, _)) in cold.iter().zip(&warm).zip(catalog) {
            assert_eq!(c, w, "{name}: cached response differs from computed");
            assert!(c.contains("\"result\""), "{name}: {c}");
        }
    }
}
