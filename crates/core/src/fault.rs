//! Deterministic fault injection for storage backends.
//!
//! [`FaultingBackend`] wraps a boxed [`Backend`] and fires faults — errors
//! or panics — at named *fault points* around the wrapped operations,
//! driven by a [`FaultPlan`]. A plan is explicit data (which point,
//! which action, after how many sign writes, how many times), so any
//! failure interleaving is replayable byte for byte: the same plan
//! against the same backend and operation sequence produces the same
//! failure at the same instruction every run. Seeded *random* plans are
//! built in `xac-serve` from the in-repo SplitMix64 generator and
//! reduce to the same explicit specs.
//!
//! The one point that needs cooperation is `mid_reannotate`, which fails
//! *inside* a repair once the configured sign-write count is reached. In
//! the two-phase §5.3 scope repair the decorator splits `reannotate` into
//! the reset (a query with empty include/except sets) and a separate
//! `annotate`, firing between them; the compiled footprint pass reports
//! its writes after each half of its changes, and fires there. When no
//! `mid_reannotate` spec is armed the scope repair delegates unsplit, so
//! the no-fault path is byte- and epoch-identical to the undecorated
//! backend.

use crate::backend::{Backend, Progress, Selection};
use crate::checkpoint::Checkpoint;
use crate::document::PreparedDocument;
use crate::error::{Error, Result};
use crate::sign_diff::SignDiff;
use crate::snapshot::AccessSnapshot;
use std::collections::BTreeMap;
use xac_policy::{AnnotationQuery, PolicyAnalysis};
use xac_xpath::Path;

/// Named instants in a backend's lifecycle where a fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultPoint {
    /// Before an annotation query is applied.
    BeforeAnnotate,
    /// Before a delete touches the store.
    BeforeDelete,
    /// After the delete, before anything else — the classic
    /// inconsistency window: the document changed, the signs did not.
    AfterDelete,
    /// Before an insert touches the store.
    BeforeInsert,
    /// After the insert, before re-annotation.
    AfterInsert,
    /// Before partial re-annotation starts.
    BeforeReannotate,
    /// Inside a re-annotation (between a scope pass's phases, after
    /// either half of a footprint pass) once at least `after_sign_writes`
    /// sign writes have landed: the store is left genuinely half-repaired.
    MidReannotate,
    /// After re-annotation completed.
    AfterReannotate,
    /// Before a snapshot is taken (the publication step).
    BeforeSnapshot,
    /// Before a checkpoint is captured.
    BeforeCheckpoint,
    /// Before a checkpoint is restored — failing here defeats the
    /// rollback rung and forces quarantine.
    BeforeRestore,
    /// Network harness: the client stalls mid-frame longer than the
    /// server's read timeout. Fired client-side by the `xac-net`
    /// transport, never by [`FaultingBackend`]; the armed
    /// [`FaultAction`] is ignored — the point itself *is* the behavior.
    NetSlowClient,
    /// Network harness: the client disconnects after sending only part
    /// of a frame. Client-side, action ignored (see
    /// [`FaultPoint::NetSlowClient`]).
    NetMidFrameDisconnect,
    /// Network harness: the client sends a frame header whose declared
    /// length exceeds the server's frame-size cap. Client-side, action
    /// ignored (see [`FaultPoint::NetSlowClient`]).
    NetOversizedFrame,
    /// Storage harness: crash after the transaction's WAL records are
    /// appended but before the commit record — recovery must roll the
    /// transaction back. Fired by the `xac-serve` durability layer,
    /// never by [`FaultingBackend`].
    WalBeforeCommit,
    /// Storage harness: crash mid-append, leaving a torn (partial,
    /// CRC-failing) record at the log's tail — the reopen scan must
    /// detect and truncate it. Durability-layer-fired (see
    /// [`FaultPoint::WalBeforeCommit`]).
    WalMidRecord,
    /// Storage harness: crash mid-page-write *after* commit, leaving a
    /// checksum-failing page on disk — recovery must rebuild the page
    /// from the WAL, and the committed transaction must survive.
    /// Durability-layer-fired (see [`FaultPoint::WalBeforeCommit`]).
    PageTornWrite,
    /// Storage harness: crash partway through the multi-page checkpoint
    /// flush *after* commit — some dirty pages written, the rest stale.
    /// Recovery reconciles from the WAL. Durability-layer-fired (see
    /// [`FaultPoint::WalBeforeCommit`]).
    CheckpointMidFlush,
}

impl FaultPoint {
    /// Every fault point, in lifecycle order (the sweep test iterates
    /// this).
    pub const ALL: [FaultPoint; 18] = [
        FaultPoint::BeforeAnnotate,
        FaultPoint::BeforeDelete,
        FaultPoint::AfterDelete,
        FaultPoint::BeforeInsert,
        FaultPoint::AfterInsert,
        FaultPoint::BeforeReannotate,
        FaultPoint::MidReannotate,
        FaultPoint::AfterReannotate,
        FaultPoint::BeforeSnapshot,
        FaultPoint::BeforeCheckpoint,
        FaultPoint::BeforeRestore,
        FaultPoint::NetSlowClient,
        FaultPoint::NetMidFrameDisconnect,
        FaultPoint::NetOversizedFrame,
        FaultPoint::WalBeforeCommit,
        FaultPoint::WalMidRecord,
        FaultPoint::PageTornWrite,
        FaultPoint::CheckpointMidFlush,
    ];

    /// The network fault points, fired by the `xac-net` client-side
    /// transport rather than by [`FaultingBackend`].
    pub const NET: [FaultPoint; 3] = [
        FaultPoint::NetSlowClient,
        FaultPoint::NetMidFrameDisconnect,
        FaultPoint::NetOversizedFrame,
    ];

    /// The durable-storage fault points, fired by the `xac-serve`
    /// durability layer (WAL + pager) rather than by
    /// [`FaultingBackend`]. The first two fire *before* the commit
    /// record (the crashed transaction must roll back); the last two
    /// fire *after* it (the transaction must survive recovery).
    pub const STORAGE: [FaultPoint; 4] = [
        FaultPoint::WalBeforeCommit,
        FaultPoint::WalMidRecord,
        FaultPoint::PageTornWrite,
        FaultPoint::CheckpointMidFlush,
    ];

    /// True for the points in [`FaultPoint::NET`].
    pub fn is_net(self) -> bool {
        FaultPoint::NET.contains(&self)
    }

    /// True for the points in [`FaultPoint::STORAGE`].
    pub fn is_storage(self) -> bool {
        FaultPoint::STORAGE.contains(&self)
    }

    /// The canonical spelling used in plans, errors and panic payloads.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::BeforeAnnotate => "before_annotate",
            FaultPoint::BeforeDelete => "before_delete",
            FaultPoint::AfterDelete => "after_delete",
            FaultPoint::BeforeInsert => "before_insert",
            FaultPoint::AfterInsert => "after_insert",
            FaultPoint::BeforeReannotate => "before_reannotate",
            FaultPoint::MidReannotate => "mid_reannotate",
            FaultPoint::AfterReannotate => "after_reannotate",
            FaultPoint::BeforeSnapshot => "before_snapshot",
            FaultPoint::BeforeCheckpoint => "before_checkpoint",
            FaultPoint::BeforeRestore => "before_restore",
            FaultPoint::NetSlowClient => "net_slow_client",
            FaultPoint::NetMidFrameDisconnect => "net_mid_frame_disconnect",
            FaultPoint::NetOversizedFrame => "net_oversized_frame",
            FaultPoint::WalBeforeCommit => "wal_before_commit",
            FaultPoint::WalMidRecord => "wal_mid_record",
            FaultPoint::PageTornWrite => "page_torn_write",
            FaultPoint::CheckpointMidFlush => "checkpoint_mid_flush",
        }
    }

    /// Parse a canonical spelling.
    pub fn parse(s: &str) -> Result<FaultPoint> {
        FaultPoint::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                Error::System(format!(
                    "unknown fault point `{s}` (valid: {})",
                    FaultPoint::ALL.map(FaultPoint::name).join(", ")
                ))
            })
    }
}

impl std::fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a firing fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultAction {
    /// Return [`Error::FaultInjected`] from the wrapped operation.
    #[default]
    Error,
    /// Panic with a recognizable payload (see
    /// [`injected_panic_point`]) — exercises `catch_unwind` and lock
    /// poisoning in the layers above.
    Panic,
}

impl FaultAction {
    /// The canonical spelling.
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::Error => "error",
            FaultAction::Panic => "panic",
        }
    }

    /// Parse a canonical spelling.
    pub fn parse(s: &str) -> Result<FaultAction> {
        match s {
            "error" => Ok(FaultAction::Error),
            "panic" => Ok(FaultAction::Panic),
            other => Err(Error::System(format!(
                "unknown fault action `{other}` (valid: error, panic)"
            ))),
        }
    }
}

/// One armed fault: where, what, when, how often.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Where the fault fires.
    pub point: FaultPoint,
    /// Error or panic.
    pub action: FaultAction,
    /// For [`FaultPoint::MidReannotate`] only: fire once at least this
    /// many sign writes have landed in the current re-annotation.
    /// Ignored at every other point.
    pub after_sign_writes: usize,
    /// How many times this spec fires before disarming.
    pub times: u32,
    /// Let this many qualifying arrivals pass before the first firing —
    /// e.g. `skip: 1` on `before_annotate` spares the engine's startup
    /// annotation and hits the next one.
    pub skip: u32,
}

impl FaultSpec {
    /// A one-shot fault at `point`.
    pub fn once(point: FaultPoint, action: FaultAction) -> FaultSpec {
        FaultSpec { point, action, after_sign_writes: 0, times: 1, skip: 0 }
    }

    /// Set the sign-write threshold (meaningful for `mid_reannotate`).
    pub fn after_sign_writes(mut self, n: usize) -> FaultSpec {
        self.after_sign_writes = n;
        self
    }

    /// Set how many times the spec fires.
    pub fn times(mut self, n: u32) -> FaultSpec {
        self.times = n;
        self
    }

    /// Set how many qualifying arrivals pass before the first firing.
    pub fn skip(mut self, n: u32) -> FaultSpec {
        self.skip = n;
        self
    }

    /// Render in the [`FaultPlan::parse`] grammar.
    fn render(&self) -> String {
        let mut s = self.point.name().to_string();
        if self.after_sign_writes > 0 {
            s.push_str(&format!("@{}", self.after_sign_writes));
        }
        s.push(':');
        s.push_str(self.action.name());
        if self.times != 1 {
            s.push_str(&format!("*{}", self.times));
        }
        if self.skip != 0 {
            s.push_str(&format!("+{}", self.skip));
        }
        s
    }
}

/// An ordered set of armed faults plus the count of faults already
/// fired. Plans are plain data: equal plans against equal operation
/// sequences fire identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    injected: u64,
}

impl FaultPlan {
    /// An empty (never-firing) plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Arm one more fault (builder style).
    pub fn with(mut self, spec: FaultSpec) -> FaultPlan {
        self.specs.push(spec);
        self
    }

    /// Arm one more fault.
    pub fn push(&mut self, spec: FaultSpec) {
        self.specs.push(spec);
    }

    /// Parse the compact plan grammar used by `--fault-plan`:
    /// comma-separated `point[@N][:action][*times][+skip]` specs, e.g.
    /// `after_delete:panic,mid_reannotate@3:error*2,before_annotate+1`.
    /// Defaults: action `error`, threshold `0`, one shot, no skip.
    pub fn parse(input: &str) -> Result<FaultPlan> {
        let mut plan = FaultPlan::new();
        for raw in input.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let (head, skip) = match raw.split_once('+') {
                Some((h, s)) => (
                    h,
                    s.parse::<u32>().map_err(|_| {
                        Error::System(format!("bad fault skip count in `{raw}`"))
                    })?,
                ),
                None => (raw, 0),
            };
            let (head, times) = match head.split_once('*') {
                Some((h, t)) => (
                    h,
                    t.parse::<u32>().map_err(|_| {
                        Error::System(format!("bad fault repeat count in `{raw}`"))
                    })?,
                ),
                None => (head, 1),
            };
            let (point_part, action) = match head.split_once(':') {
                Some((p, a)) => (p, FaultAction::parse(a)?),
                None => (head, FaultAction::Error),
            };
            let (point_name, after) = match point_part.split_once('@') {
                Some((p, n)) => (
                    p,
                    n.parse::<usize>().map_err(|_| {
                        Error::System(format!("bad sign-write threshold in `{raw}`"))
                    })?,
                ),
                None => (point_part, 0),
            };
            plan.push(FaultSpec {
                point: FaultPoint::parse(point_name)?,
                action,
                after_sign_writes: after,
                times,
                skip,
            });
        }
        Ok(plan)
    }

    /// True when nothing is armed (fired or empty plans alike).
    pub fn is_exhausted(&self) -> bool {
        self.specs.iter().all(|s| s.times == 0)
    }

    /// Number of faults fired so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The armed specs.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// True when a `mid_reannotate` spec is still armed — the decorator
    /// only splits the two-phase repair in that case.
    fn mid_armed(&self) -> bool {
        self.specs
            .iter()
            .any(|s| s.point == FaultPoint::MidReannotate && s.times > 0)
    }

    /// Fire-and-disarm the next armed spec at `point`, honouring its
    /// skip count. Public for harnesses outside [`FaultingBackend`]:
    /// the `xac-net` transport drives the client-side network points
    /// ([`FaultPoint::NET`]) from the same plan grammar.
    pub fn fire_at(&mut self, point: FaultPoint) -> Option<FaultAction> {
        self.take(point)
    }

    /// Fire-and-disarm for a plain point (never `MidReannotate`).
    fn take(&mut self, point: FaultPoint) -> Option<FaultAction> {
        debug_assert_ne!(point, FaultPoint::MidReannotate);
        let spec = self
            .specs
            .iter_mut()
            .find(|s| s.point == point && s.times > 0)?;
        if spec.skip > 0 {
            spec.skip -= 1;
            return None;
        }
        spec.times -= 1;
        self.injected += 1;
        Some(spec.action)
    }

    /// Fire-and-disarm for `MidReannotate`, once `writes_done` reaches
    /// the armed threshold.
    fn take_mid(&mut self, writes_done: usize) -> Option<FaultAction> {
        let spec = self.specs.iter_mut().find(|s| {
            s.point == FaultPoint::MidReannotate
                && s.times > 0
                && writes_done >= s.after_sign_writes
        })?;
        if spec.skip > 0 {
            spec.skip -= 1;
            return None;
        }
        spec.times -= 1;
        self.injected += 1;
        Some(spec.action)
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rendered: Vec<String> = self.specs.iter().map(FaultSpec::render).collect();
        f.write_str(&rendered.join(","))
    }
}

/// Prefix of every injected panic payload; [`injected_panic_point`]
/// recognizes it on the catching side.
const PANIC_PREFIX: &str = "injected fault at `";

/// The panic message for a fault point (what [`FaultAction::Panic`]
/// panics with).
pub fn injected_panic_message(point: FaultPoint) -> String {
    format!("{PANIC_PREFIX}{}`", point.name())
}

/// If a caught panic payload came from [`FaultAction::Panic`], the name
/// of the fault point that fired; `None` for organic panics. Accepts
/// the payload of `std::panic::catch_unwind`.
pub fn injected_panic_point(payload: &(dyn std::any::Any + Send)) -> Option<String> {
    let text: &str = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied())?;
    text.strip_prefix(PANIC_PREFIX)
        .and_then(|rest| rest.strip_suffix('`'))
        .map(str::to_string)
}

/// A [`Backend`] decorator that fires the faults of a [`FaultPlan`] at
/// the corresponding points around the wrapped backend's operations.
/// With an exhausted (or empty) plan it is behaviorally identical to
/// the wrapped backend — same bytes, same epochs.
pub struct FaultingBackend {
    inner: Box<dyn Backend + Send>,
    plan: FaultPlan,
}

impl FaultingBackend {
    /// Wrap `inner`, arming `plan`.
    pub fn new(inner: Box<dyn Backend + Send>, plan: FaultPlan) -> FaultingBackend {
        FaultingBackend { inner, plan }
    }

    /// The armed plan (inspect `injected()` for the fired count).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn fire(&mut self, point: FaultPoint) -> Result<()> {
        let action = self.plan.take(point);
        act(point, action)
    }

    fn fire_mid(&mut self, writes_done: usize) -> Result<()> {
        let action = self.plan.take_mid(writes_done);
        act(FaultPoint::MidReannotate, action)
    }
}

/// Carry out the action a fault plan drew at `point`, if any.
fn act(point: FaultPoint, action: Option<FaultAction>) -> Result<()> {
    let Some(action) = action else { return Ok(()) };
    xac_obs::instant(&format!("fault:{}", point.name()));
    match action {
        FaultAction::Error => Err(Error::FaultInjected { point: point.name().to_string() }),
        FaultAction::Panic => panic!("{}", injected_panic_message(point)),
    }
}

impl Backend for FaultingBackend {
    /// Transparent: checkpoints/snapshots taken through the decorator
    /// carry the wrapped backend's name.
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn load(&mut self, prepared: &PreparedDocument) -> Result<()> {
        self.inner.load(prepared)
    }

    fn annotate(&mut self, query: &AnnotationQuery) -> Result<usize> {
        self.fire(FaultPoint::BeforeAnnotate)?;
        self.inner.annotate(query)
    }

    fn reset_annotations(&mut self) -> Result<usize> {
        self.inner.reset_annotations()
    }

    fn query_nodes_allowed(&mut self, path: &Path) -> Result<(usize, bool)> {
        self.inner.query_nodes_allowed(path)
    }

    fn accessible_count(&mut self) -> Result<usize> {
        self.inner.accessible_count()
    }

    fn select(&mut self, path: &Path) -> Result<Selection> {
        self.inner.select(path)
    }

    fn delete_selected(&mut self, at: &Selection) -> Result<usize> {
        self.fire(FaultPoint::BeforeDelete)?;
        let removed = self.inner.delete_selected(at)?;
        self.fire(FaultPoint::AfterDelete)?;
        Ok(removed)
    }

    fn insert_selected(&mut self, at: &Selection, name: &str, text: Option<&str>) -> Result<usize> {
        self.fire(FaultPoint::BeforeInsert)?;
        let inserted = self.inner.insert_selected(at, name, text)?;
        self.fire(FaultPoint::AfterInsert)?;
        Ok(inserted)
    }

    fn reannotate(&mut self, scope: &[Path], query: &AnnotationQuery) -> Result<usize> {
        self.fire(FaultPoint::BeforeReannotate)?;
        let total = if self.plan.mid_armed() {
            // Split the two-phase §5.3 repair so the fault lands between
            // (or inside) the phases, leaving genuinely half-applied
            // sign state. Phase 1 is the reset alone: the same query
            // with empty include/except writes nothing beyond the scope
            // reset on every backend.
            let reset_only = AnnotationQuery {
                include: Vec::new(),
                except: Vec::new(),
                ..query.clone()
            };
            let reset = self.inner.reannotate(scope, &reset_only)?;
            self.fire_mid(reset)?;
            // Through `self`, not `inner`: a `before_annotate` spec can
            // interpose on phase 2 as well.
            let annotated = self.annotate(query)?;
            self.fire_mid(reset + annotated)?;
            reset + annotated
        } else {
            self.inner.reannotate(scope, query)?
        };
        self.fire(FaultPoint::AfterReannotate)?;
        Ok(total)
    }

    /// `mid_reannotate` fires after either half of the footprint's writes.
    fn reannotate_footprint(&mut self, analysis: &PolicyAnalysis, progress: Progress) -> Result<usize> {
        self.fire(FaultPoint::BeforeReannotate)?;
        let plan = &mut self.plan;
        let total = self.inner.reannotate_footprint(analysis, &mut |done| {
            progress(done)?;
            act(FaultPoint::MidReannotate, plan.take_mid(done))
        })?;
        self.fire(FaultPoint::AfterReannotate)?;
        Ok(total)
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn snapshot(&mut self) -> Result<AccessSnapshot> {
        self.fire(FaultPoint::BeforeSnapshot)?;
        self.inner.snapshot()
    }

    fn sign_state(&mut self) -> Result<BTreeMap<i64, char>> {
        self.inner.sign_state()
    }

    fn sign_changes(&mut self) -> Result<SignDiff> {
        self.inner.sign_changes()
    }

    /// Transparent: the storage points ([`FaultPoint::STORAGE`]) are
    /// fired by the durability layer around its own WAL/page writes,
    /// not here.
    fn apply_sign_state(&mut self, signs: &BTreeMap<i64, char>, min_epoch: u64) -> Result<()> {
        self.inner.apply_sign_state(signs, min_epoch)
    }

    fn checkpoint(&mut self) -> Result<Checkpoint> {
        self.fire(FaultPoint::BeforeCheckpoint)?;
        self.inner.checkpoint()
    }

    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        self.fire(FaultPoint::BeforeRestore)?;
        self.inner.restore(checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, NativeXmlBackend, RelationalBackend};
    use crate::document::PreparedDocument;
    use xac_policy::policy::hospital_policy;
    use xac_xml::Document;

    fn prepared() -> PreparedDocument {
        let schema = crate::hospital_schema_for_docs();
        let doc = Document::parse_str(
            "<hospital><dept><patients>\
             <patient><psn>1</psn><name>a</name>\
             <treatment><regular><med>m</med><bill>1</bill></regular></treatment></patient>\
             <patient><psn>2</psn><name>b</name></patient>\
             </patients><staffinfo/></dept></hospital>",
        )
        .unwrap();
        PreparedDocument::prepare(&schema, doc, '-').unwrap()
    }

    #[test]
    fn plan_grammar_round_trips() {
        let plan = FaultPlan::parse(
            "after_delete:panic,mid_reannotate@3:error*2,before_snapshot,before_annotate+1",
        )
        .unwrap();
        assert_eq!(plan.specs().len(), 4);
        assert_eq!(plan.specs()[0].point, FaultPoint::AfterDelete);
        assert_eq!(plan.specs()[0].action, FaultAction::Panic);
        assert_eq!(plan.specs()[1].after_sign_writes, 3);
        assert_eq!(plan.specs()[1].times, 2);
        assert_eq!(plan.specs()[2].action, FaultAction::Error);
        assert_eq!(plan.specs()[3].skip, 1);
        let rendered = plan.to_string();
        assert_eq!(FaultPlan::parse(&rendered).unwrap(), plan);
    }

    #[test]
    fn plan_rejects_unknown_points_and_actions() {
        assert!(FaultPlan::parse("no_such_point").is_err());
        assert!(FaultPlan::parse("after_delete:explode").is_err());
        assert!(FaultPlan::parse("after_delete*many").is_err());
        assert!(FaultPlan::parse("mid_reannotate@x").is_err());
        assert!(FaultPlan::parse("after_delete+x").is_err());
    }

    #[test]
    fn empty_plan_is_transparent() {
        let p = prepared();
        let q = xac_policy::AnnotationQuery::from_policy(&hospital_policy());
        let mut plain = NativeXmlBackend::new();
        plain.load(&p).unwrap();
        plain.annotate(&q).unwrap();
        let mut faulting = FaultingBackend::new(Box::new(NativeXmlBackend::new()), FaultPlan::new());
        faulting.load(&p).unwrap();
        faulting.annotate(&q).unwrap();
        assert_eq!(faulting.name(), "native/xml");
        assert_eq!(faulting.epoch(), plain.epoch());
        assert_eq!(faulting.sign_state().unwrap(), plain.sign_state().unwrap());
        assert_eq!(faulting.plan().injected(), 0);
    }

    #[test]
    fn one_shot_error_fires_once_then_disarms() {
        let p = prepared();
        let plan = FaultPlan::new().with(FaultSpec::once(
            FaultPoint::BeforeDelete,
            FaultAction::Error,
        ));
        let mut b = FaultingBackend::new(Box::new(RelationalBackend::row()), plan);
        b.load(&p).unwrap();
        let path = xac_xpath::parse("//treatment").unwrap();
        let err = b.delete(&path).unwrap_err();
        assert_eq!(err, Error::FaultInjected { point: "before_delete".into() });
        assert_eq!(b.plan().injected(), 1);
        assert!(b.plan().is_exhausted());
        // Disarmed: the retry goes through and the first attempt
        // changed nothing (the fault fired *before* the delete).
        assert_eq!(b.delete(&path).unwrap(), 4);
    }

    #[test]
    fn skip_spares_early_arrivals() {
        let p = prepared();
        let plan = FaultPlan::parse("before_delete+1").unwrap();
        let mut b = FaultingBackend::new(Box::new(NativeXmlBackend::new()), plan);
        b.load(&p).unwrap();
        let regular = xac_xpath::parse("//regular").unwrap();
        let exp = xac_xpath::parse("//experimental").unwrap();
        assert!(b.delete(&regular).is_ok(), "first arrival skipped");
        assert_eq!(b.plan().injected(), 0);
        assert!(b.delete(&exp).is_err(), "second arrival fires");
        assert_eq!(b.plan().injected(), 1);
    }

    #[test]
    fn panic_payload_names_the_point() {
        let p = prepared();
        let plan = FaultPlan::parse("after_insert:panic").unwrap();
        let mut b = FaultingBackend::new(Box::new(NativeXmlBackend::new()), plan);
        b.load(&p).unwrap();
        let parent = xac_xpath::parse("//patient").unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = b.insert(&parent, "treatment", None);
        }))
        .unwrap_err();
        assert_eq!(injected_panic_point(&*caught).as_deref(), Some("after_insert"));
        assert_eq!(
            injected_panic_point(&Box::new("unrelated panic") as &(dyn std::any::Any + Send)),
            None
        );
    }

    /// On the compiled footprint pass, `mid_reannotate` fires after the
    /// first half of the changes: neither the stale nor the repaired
    /// signs remain.
    #[test]
    fn mid_reannotate_leaves_a_half_written_footprint() {
        use crate::backend::AnnotateMode::Compiled;
        use xac_reldb::StorageKind;
        let p = prepared();
        let policy = xac_policy::Policy::parse(
            "default deny\nconflict deny-overrides\n\
             A1 allow //patient[psn]/name\nA2 allow //patient[psn]\n",
        )
        .unwrap();
        let analysis = PolicyAnalysis::build(&policy, None);
        let psn = xac_xpath::parse("//psn").unwrap();
        let compiled = || -> [Box<dyn Backend + Send>; 3] {
            [
                Box::new(RelationalBackend::with_mode(StorageKind::Row, Compiled)),
                Box::new(RelationalBackend::with_mode(StorageKind::Column, Compiled)),
                Box::new(NativeXmlBackend::with_mode(Compiled)),
            ]
        };
        for (mut clean, inner) in compiled().into_iter().zip(compiled()) {
            let plan = FaultPlan::parse("mid_reannotate@1").unwrap();
            let mut b = FaultingBackend::new(inner, plan);
            for x in [clean.as_mut(), &mut b as &mut dyn Backend] {
                x.load(&p).unwrap();
                x.annotate(analysis.annotation_query()).unwrap();
                assert_eq!(x.delete(&psn).unwrap(), 2);
            }
            let stale = clean.sign_state().unwrap();
            let writes = clean.reannotate_footprint(&analysis, &mut |_| Ok(())).unwrap();
            assert_eq!(writes, 4, "{}: both patients and their names", clean.name());
            let repaired = clean.sign_state().unwrap();
            let err = b.reannotate_footprint(&analysis, &mut |_| Ok(())).unwrap_err();
            assert_eq!(err, Error::FaultInjected { point: "mid_reannotate".into() });
            let half = b.sign_state().unwrap();
            assert!(half != stale && half != repaired, "{}: {half:?}", b.name());
        }
    }

    #[test]
    fn mid_reannotate_leaves_half_applied_state_and_checkpoint_restores_it() {
        let p = prepared();
        let q = xac_policy::AnnotationQuery::from_policy(&hospital_policy());
        for mut inner in [RelationalBackend::row(), RelationalBackend::column()] {
            inner.load(&p).unwrap();
            inner.annotate(&q).unwrap();
            let golden = inner.sign_state().unwrap();
            let cp = inner.checkpoint().unwrap();
            let plan = FaultPlan::parse("mid_reannotate@1").unwrap();
            let mut b = FaultingBackend::new(Box::new(inner), plan);
            let scope = vec![xac_xpath::parse("//patient").unwrap()];
            let err = b.reannotate(&scope, &q).unwrap_err();
            assert!(matches!(err, Error::FaultInjected { .. }));
            assert_ne!(
                b.sign_state().unwrap(),
                golden,
                "{}: fault must land mid-repair, leaving signs half-applied",
                b.name()
            );
            b.restore(&cp).unwrap();
            assert_eq!(b.sign_state().unwrap(), golden, "{}: restore heals", b.name());
            assert!(b.epoch() > cp.epoch(), "epoch strictly advances on restore");
        }
    }

    #[test]
    fn restore_rejects_foreign_checkpoints() {
        let p = prepared();
        let mut native = NativeXmlBackend::new();
        native.load(&p).unwrap();
        let cp = native.checkpoint().unwrap();
        assert_eq!(cp.backend(), "native/xml");
        let mut row = RelationalBackend::row();
        row.load(&p).unwrap();
        let before = row.sign_state().unwrap();
        assert!(row.restore(&cp).is_err());
        assert_eq!(row.sign_state().unwrap(), before, "failed restore leaves state untouched");
        let mut col = RelationalBackend::column();
        col.load(&p).unwrap();
        let row_cp = row.checkpoint().unwrap();
        assert!(col.restore(&row_cp).is_err(), "row checkpoint cannot restore column");
    }
}
