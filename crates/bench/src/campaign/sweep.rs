//! The sweep data model: parameter axes over [`ScenarioSpec`] fields and
//! their cartesian expansion into a deterministic grid of cells.
//!
//! A [`SweepSpec`] is a base scenario plus a list of [`Axis`]es. Each axis
//! holds an ordered list of [`AxisPoint`]s; each point carries one or more
//! [`Edit`]s that are applied *together* (so coupled parameters — e.g. the
//! trade-off campaign's `(g, jam-rate)` pairs — are one axis with
//! multi-edit points, while independent parameters are separate axes and
//! combine cartesian-style). Expansion order is row-major with the first
//! axis slowest, and nothing about it depends on thread count or hashing,
//! so the cell list — and hence every downstream table — is deterministic.

use contention_sim::Execution;

use crate::scenario::spec::{
    AdversarySpec, AlgoSpec, ArrivalSpec, ChannelSpec, GSpec, HorizonSpec, JammingSpec, RecordMode,
    ScenarioSpec,
};

/// One field edit applied to a [`ScenarioSpec`] by an axis point.
///
/// Edits are deliberately *semantic* rather than path-based: `N` means
/// "the population scale of whatever arrival process the base scenario
/// uses", so the same axis declaration works across batch, saturated,
/// bursty and uniform-random bases. Edits that do not apply to the base
/// (e.g. [`Edit::Rate`] on a batch arrival) are no-ops.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// Population scale: `Batch.count`, `Saturated.target`,
    /// `UniformRandom.total`, or `Bursty.size`.
    N(u32),
    /// Jamming intensity: replaces `Random`/`None` jamming with
    /// [`JammingSpec::random`] (0 collapses to none) and retunes
    /// `GilbertElliott.fraction` in place.
    Jam(f64),
    /// Horizon `t`: sets the scripted horizon of a lower-bound adversary
    /// (`Theorem13`/`Theorem42`/`Lemma41`), then `Fixed` horizons run
    /// exactly `t` slots while `UntilDrained` caps get `4·t` of drain
    /// headroom (the convention the lower-bound experiments use).
    Horizon(u64),
    /// Poisson arrival rate.
    Rate(f64),
    /// Retune the jamming-tolerance function: every Cjz-family roster
    /// entry, plus the budget and smoothness parameter blocks if present.
    G(GSpec),
    /// Replace the algorithm roster.
    Algos(Vec<AlgoSpec>),
    /// Replication count.
    Seeds(u64),
    /// Replace the channel-feedback model (and its listening cost) — the
    /// cross-model comparison axis.
    Channel(ChannelSpec),
    /// Replace the execution strategy (exact, skip-ahead, or
    /// bit-parallel) — the engine-comparison axis, and the knob
    /// mega-scale sweeps flip.
    Execution(Execution),
}

impl Edit {
    /// Apply the edit to a spec (in place).
    pub fn apply(&self, spec: &mut ScenarioSpec) {
        match self {
            Edit::N(n) => {
                if let AdversarySpec::Composite { arrival, .. } = &mut spec.adversary {
                    match arrival {
                        ArrivalSpec::Batch { count, .. } => *count = *n,
                        ArrivalSpec::Saturated { target, .. } => *target = Some(u64::from(*n)),
                        ArrivalSpec::UniformRandom { total, .. } => *total = u64::from(*n),
                        ArrivalSpec::Bursty { size, .. } => *size = *n,
                        _ => {}
                    }
                }
            }
            Edit::Jam(p) => {
                if let AdversarySpec::Composite { jamming, .. } = &mut spec.adversary {
                    match jamming {
                        JammingSpec::GilbertElliott { fraction, .. } => *fraction = *p,
                        JammingSpec::None | JammingSpec::Random { .. } => {
                            *jamming = JammingSpec::random(*p)
                        }
                        _ => {}
                    }
                }
            }
            Edit::Horizon(t) => {
                match &mut spec.adversary {
                    AdversarySpec::Theorem13 { horizon, .. }
                    | AdversarySpec::Theorem42 { horizon, .. }
                    | AdversarySpec::Lemma41 { horizon, .. } => *horizon = *t,
                    AdversarySpec::Composite { .. } => {}
                }
                spec.horizon = match spec.horizon {
                    HorizonSpec::Fixed { .. } => HorizonSpec::Fixed { slots: *t },
                    HorizonSpec::UntilDrained { .. } => HorizonSpec::UntilDrained {
                        max_slots: t.saturating_mul(4),
                    },
                };
            }
            Edit::Rate(r) => {
                if let AdversarySpec::Composite {
                    arrival: ArrivalSpec::Poisson { rate, .. },
                    ..
                } = &mut spec.adversary
                {
                    *rate = *r;
                }
            }
            Edit::G(g) => {
                for algo in &mut spec.algos {
                    match algo {
                        AlgoSpec::Cjz(p) | AlgoSpec::CjzNoSwap(p) | AlgoSpec::CjzOracle(p) => {
                            p.g = g.clone()
                        }
                        AlgoSpec::Baseline(_) => {}
                    }
                }
                if let Some(budget) = &mut spec.budget {
                    budget.params.g = g.clone();
                }
                if let Some(smooth) = &mut spec.smooth {
                    smooth.params.g = g.clone();
                }
            }
            Edit::Algos(roster) => spec.algos = roster.clone(),
            Edit::Seeds(s) => spec.seeds = (*s).max(1),
            Edit::Channel(c) => spec.channel = *c,
            Edit::Execution(e) => spec.execution = *e,
        }
    }
}

/// One point on an axis: a display label plus the edits applied together.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisPoint {
    /// Value label shown in axis columns (e.g. `64`, `2^12`, `log`).
    pub label: String,
    /// The coupled edits this point applies.
    pub edits: Vec<Edit>,
}

impl AxisPoint {
    /// A point with one edit.
    pub fn new(label: impl Into<String>, edit: Edit) -> Self {
        AxisPoint {
            label: label.into(),
            edits: vec![edit],
        }
    }

    /// A point applying several edits together.
    pub fn coupled(label: impl Into<String>, edits: impl IntoIterator<Item = Edit>) -> Self {
        AxisPoint {
            label: label.into(),
            edits: edits.into_iter().collect(),
        }
    }
}

/// A named, ordered list of [`AxisPoint`]s — one sweep dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Axis name (column header in tables, e.g. `n`, `jam`, `t`, `g`).
    pub name: String,
    /// The points, in sweep order.
    pub points: Vec<AxisPoint>,
}

impl Axis {
    /// An axis from explicit points.
    pub fn new(name: impl Into<String>, points: Vec<AxisPoint>) -> Self {
        Axis {
            name: name.into(),
            points,
        }
    }

    /// Population axis over explicit sizes.
    pub fn n(values: impl IntoIterator<Item = u32>) -> Self {
        Axis::new(
            "n",
            values
                .into_iter()
                .map(|v| AxisPoint::new(v.to_string(), Edit::N(v)))
                .collect(),
        )
    }

    /// Jamming-rate axis over explicit probabilities.
    pub fn jam(values: impl IntoIterator<Item = f64>) -> Self {
        Axis::new(
            "jam",
            values
                .into_iter()
                .map(|v| AxisPoint::new(v.to_string(), Edit::Jam(v)))
                .collect(),
        )
    }

    /// Horizon axis over powers of two (labels `2^p`).
    pub fn horizons_pow2(powers: impl IntoIterator<Item = u32>) -> Self {
        Axis::new(
            "t",
            powers
                .into_iter()
                .map(|p| AxisPoint::new(format!("2^{p}"), Edit::Horizon(1u64 << p)))
                .collect(),
        )
    }

    /// The paper's admissible-`g` spectrum, each tuning coupled with the
    /// jamming rate it is meant to survive (the E1 pairing).
    pub fn g_spectrum() -> Self {
        let cases = [
            ("const", GSpec::Constant(2.0), 0.4),
            ("log", GSpec::Log, 0.25),
            ("log2", GSpec::PolyLog(2), 0.15),
            ("expsqrt", GSpec::ExpSqrtLog(1.0), 0.1),
        ];
        Axis::new(
            "g",
            cases
                .into_iter()
                .map(|(label, g, jam)| AxisPoint::coupled(label, [Edit::G(g), Edit::Jam(jam)]))
                .collect(),
        )
    }

    /// Channel-model axis: one point per feedback model, labelled by the
    /// model's stable name (`no-cd`, `cd`, `ack-only`).
    pub fn channels(channels: impl IntoIterator<Item = ChannelSpec>) -> Self {
        Axis::new(
            "channel",
            channels
                .into_iter()
                .map(|c| AxisPoint::new(c.name(), Edit::Channel(c)))
                .collect(),
        )
    }

    /// Execution-strategy axis: one point per strategy, labelled by the
    /// strategy's stable name (`exact`, `skip-ahead`, `bit-parallel`).
    pub fn executions(executions: impl IntoIterator<Item = Execution>) -> Self {
        Axis::new(
            "execution",
            executions
                .into_iter()
                .map(|e| AxisPoint::new(e.name(), Edit::Execution(e)))
                .collect(),
        )
    }

    /// Roster axis: each point runs a single algorithm (labelled by its
    /// display name). Named `roster` so the coordinate column never
    /// collides with the per-row `algo` metric column in CSV/tables.
    pub fn algos(algos: impl IntoIterator<Item = AlgoSpec>) -> Self {
        Axis::new(
            "roster",
            algos
                .into_iter()
                .map(|a| AxisPoint::new(a.name(), Edit::Algos(vec![a])))
                .collect(),
        )
    }
}

/// A declarative parameter sweep: a base scenario plus axes to expand.
///
/// Serializable (see [`SweepSpec::to_json_string`]) and executable (see
/// [`CampaignRunner`](super::runner::CampaignRunner)); named sweeps live
/// in the [campaign registry](super::registry).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Campaign name (registry key).
    pub name: String,
    /// Human heading used by report renderers.
    pub title: String,
    /// The scenario template every cell starts from.
    pub base: ScenarioSpec,
    /// Sweep dimensions (empty = a single cell: the base itself).
    pub axes: Vec<Axis>,
}

/// One expanded grid cell: the materialized scenario plus its coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// `(axis name, point label)` per axis, in axis order.
    pub coords: Vec<(String, String)>,
    /// The scenario with every coordinate edit applied.
    pub spec: ScenarioSpec,
}

impl SweepSpec {
    /// A sweep with no axes (a single cell).
    pub fn new(name: impl Into<String>, title: impl Into<String>, base: ScenarioSpec) -> Self {
        SweepSpec {
            name: name.into(),
            title: title.into(),
            base,
            axes: Vec::new(),
        }
    }

    /// Append an axis.
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Override the base replication count (applies to every cell that no
    /// [`Edit::Seeds`] axis point overrides).
    pub fn seeds(mut self, seeds: u64) -> Self {
        self.base.seeds = seeds.max(1);
        self
    }

    /// Number of grid cells (product of axis lengths; 1 when axis-free).
    pub fn cell_count(&self) -> usize {
        self.axes.iter().map(|a| a.points.len().max(1)).product()
    }

    /// Expand the grid: row-major, first axis slowest. Each cell's
    /// scenario is the base with the point edits applied axis by axis and
    /// its name suffixed with the coordinates, e.g. `batch[jam=0.25,n=64]`.
    /// Campaign cells always run memory-bounded ([`RecordMode::Aggregate`]):
    /// the runner reads each seed's row off its trace's totals, so storing
    /// per-slot records would be pure overhead.
    pub fn cells(&self) -> Vec<Cell> {
        let total = self.cell_count();
        let mut out = Vec::with_capacity(total);
        for mut index in 0..total {
            // Decode the row-major index into one point per axis
            // (first axis slowest).
            let mut picks = Vec::with_capacity(self.axes.len());
            for axis in self.axes.iter().rev() {
                let len = axis.points.len().max(1);
                picks.push(index % len);
                index /= len;
            }
            picks.reverse();

            let mut spec = self.base.clone();
            let mut coords = Vec::with_capacity(self.axes.len());
            for (axis, &pick) in self.axes.iter().zip(&picks) {
                // A point-free axis (possible via hand-written JSON)
                // contributes nothing — consistent with cell_count(),
                // which counts it as 1.
                let Some(point) = axis.points.get(pick) else {
                    continue;
                };
                for edit in &point.edits {
                    edit.apply(&mut spec);
                }
                coords.push((axis.name.clone(), point.label.clone()));
            }
            if !coords.is_empty() {
                let suffix: Vec<String> = coords.iter().map(|(a, v)| format!("{a}={v}")).collect();
                spec.name = format!("{}[{}]", spec.name, suffix.join(","));
            }
            spec.record = RecordMode::Aggregate;
            out.push(Cell { coords, spec });
        }
        out
    }

    /// Shrink to smoke scale: the base scenario is smoke-shrunk and every
    /// axis keeps at most its first two points, so the grid structure —
    /// axis names, ordering, coupled edits — is exercised end-to-end in a
    /// fraction of the work. Deterministic, like everything else here.
    pub fn smoke(mut self) -> Self {
        self.base = self.base.smoke();
        for axis in &mut self.axes {
            axis.points.truncate(2);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::{ArrivalSpec, BaselineSpec};

    fn base() -> ScenarioSpec {
        ScenarioSpec::batch(32, 0.0).seeds(2)
    }

    #[test]
    fn cartesian_cardinality_and_row_major_order() {
        let sweep = SweepSpec::new("s", "S", base())
            .axis(Axis::jam([0.0, 0.25]))
            .axis(Axis::n([8, 16, 32]));
        assert_eq!(sweep.cell_count(), 6);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 6);
        // First axis slowest: jam=0 covers the first three cells.
        let labels: Vec<String> = cells
            .iter()
            .map(|c| format!("{},{}", c.coords[0].1, c.coords[1].1))
            .collect();
        assert_eq!(
            labels,
            ["0,8", "0,16", "0,32", "0.25,8", "0.25,16", "0.25,32"]
        );
        assert_eq!(cells[4].spec.name, "batch/32[jam=0.25,n=16]");
        // Expansion is pure: a second call yields the same grid.
        assert_eq!(sweep.cells(), cells);
    }

    #[test]
    fn empty_axis_is_a_no_op_not_a_panic() {
        // Hand-written JSON can declare an axis with zero points; the grid
        // must degrade to the base cell rather than index out of bounds.
        let sweep = SweepSpec::new("e", "E", base())
            .axis(Axis::new("empty", vec![]))
            .axis(Axis::n([4, 8]));
        assert_eq!(sweep.cell_count(), 2);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].coords, vec![("n".to_string(), "4".to_string())]);
    }

    #[test]
    fn axis_free_sweep_is_a_single_base_cell() {
        let sweep = SweepSpec::new("solo", "Solo", base());
        let cells = sweep.cells();
        assert_eq!(cells.len(), 1);
        assert!(cells[0].coords.is_empty());
        assert_eq!(cells[0].spec.name, "batch/32");
        assert_eq!(cells[0].spec.record, RecordMode::Aggregate);
    }

    #[test]
    fn edits_apply_semantically() {
        let mut spec = base();
        Edit::N(64).apply(&mut spec);
        Edit::Jam(0.3).apply(&mut spec);
        match &spec.adversary {
            AdversarySpec::Composite { arrival, jamming } => {
                assert_eq!(*arrival, ArrivalSpec::Batch { at: 1, count: 64 });
                assert_eq!(*jamming, JammingSpec::Random { p: 0.3 });
            }
            other => panic!("unexpected adversary {other:?}"),
        }
        // Jam(0) collapses to no jamming, matching JammingSpec::random.
        Edit::Jam(0.0).apply(&mut spec);
        match &spec.adversary {
            AdversarySpec::Composite { jamming, .. } => assert_eq!(*jamming, JammingSpec::None),
            other => panic!("unexpected adversary {other:?}"),
        }
        Edit::Seeds(0).apply(&mut spec);
        assert_eq!(spec.seeds, 1, "seed count clamps to at least 1");
    }

    #[test]
    fn horizon_edit_drives_lowerbound_scripts() {
        let mut spec = ScenarioSpec::new("lb")
            .algo(AlgoSpec::cjz_constant_jamming())
            .adversary(AdversarySpec::Theorem13 {
                horizon: 1,
                g_of_t: 2.0,
            })
            .until_drained(1);
        Edit::Horizon(1024).apply(&mut spec);
        match &spec.adversary {
            AdversarySpec::Theorem13 { horizon, .. } => assert_eq!(*horizon, 1024),
            other => panic!("unexpected adversary {other:?}"),
        }
        assert_eq!(spec.horizon, HorizonSpec::UntilDrained { max_slots: 4096 });
        let mut fixed = spec.clone().fixed_horizon(1);
        Edit::Horizon(512).apply(&mut fixed);
        assert_eq!(fixed.horizon, HorizonSpec::Fixed { slots: 512 });
    }

    #[test]
    fn g_edit_retunes_protocol_and_budget() {
        let mut spec = ScenarioSpec::new("g")
            .algo(AlgoSpec::cjz_constant_jamming())
            .algo(AlgoSpec::Baseline(BaselineSpec::BinaryExponential))
            .arrivals(ArrivalSpec::saturated())
            .budget(crate::scenario::BudgetSpec::critical(
                crate::scenario::ParamsSpec::constant_jamming(),
                4.0,
            ));
        Edit::G(GSpec::Log).apply(&mut spec);
        match &spec.algos[0] {
            AlgoSpec::Cjz(p) => assert_eq!(p.g, GSpec::Log),
            other => panic!("unexpected algo {other:?}"),
        }
        assert_eq!(
            spec.algos[1],
            AlgoSpec::Baseline(BaselineSpec::BinaryExponential)
        );
        assert_eq!(spec.budget.as_ref().unwrap().params.g, GSpec::Log);
    }

    #[test]
    fn smoke_truncates_axes_and_shrinks_base() {
        let sweep = SweepSpec::new("s", "S", base().seeds(10))
            .axis(Axis::n([8, 16, 32, 64]))
            .smoke();
        assert_eq!(sweep.axes[0].points.len(), 2);
        assert_eq!(sweep.base.seeds, 1);
    }

    #[test]
    fn channel_axis_sweeps_the_feedback_model() {
        let axis = Axis::channels([
            ChannelSpec::no_collision_detection(),
            ChannelSpec::collision_detection().with_listen_cost(0.2),
            ChannelSpec::ack_only(),
        ]);
        assert_eq!(axis.name, "channel");
        let labels: Vec<&str> = axis.points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["no-cd", "cd", "ack-only"]);
        let mut spec = base();
        axis.points[1].edits[0].apply(&mut spec);
        assert_eq!(
            spec.channel,
            ChannelSpec::collision_detection().with_listen_cost(0.2)
        );
    }

    #[test]
    fn g_spectrum_axis_couples_g_and_jam() {
        let axis = Axis::g_spectrum();
        assert_eq!(axis.points.len(), 4);
        assert_eq!(axis.points[1].label, "log");
        assert_eq!(axis.points[1].edits.len(), 2);
    }
}
