//! Discrete-event simulation engine.
//!
//! Models one AIE design as a network of *nodes* (PLIO sources, tile
//! kernels, PLIO sinks) connected by bounded *FIFOs* (stream-switch channels
//! or ping-pong buffer pairs). Time advances in AIE core cycles through an
//! event heap; nodes fire iterations when their inputs hold enough elements
//! and their outputs have space, stall otherwise, and wake their neighbours
//! on push/pop — reproducing pipeline fill, backpressure and rate matching
//! the way AMD's `aiesim` traces do at block granularity.
//!
//! # Cycle stepping
//!
//! With [`Sim::with_cycle_stepping`] the engine also keeps a per-node
//! microarchitectural scoreboard that is updated once per simulated core
//! cycle for every busy node — tiles running an iteration *and* PLIO
//! sources with a batch in flight. The clock that drives it is not an
//! event: the next tick is held beside the heap as the `(time, seq)` key it
//! would have had inside it, so it keeps its place among same-time
//! `Finish`/`TryStart` events (which decides whether a node counts as busy
//! in that cycle), and it runs up to each event in one step. Between two
//! events nothing the simulation can observe changes, so a node that goes
//! busy notes the first tick that will see it and, when its iteration
//! finishes, folds every cycle up to the next tick into its scoreboard at
//! once. The scoreboard state after a run is exactly what one update per
//! cycle leaves; only how it is computed differs (see
//! [`SCOREBOARD_SLOTS`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;

use cgsim_trace::{BlockSide, ChannelRef, KernelRef, TraceEvent, Tracer};

/// Index of a FIFO in the design.
pub type FifoId = usize;
/// Index of a node in the design.
pub type NodeId = usize;

/// A bounded channel between two nodes.
#[derive(Clone, Debug)]
pub struct Fifo {
    /// Capacity in elements. For ping-pong window connections this is two
    /// windows' worth, reproducing double buffering.
    pub capacity: u64,
    occupancy: u64,
    /// Space reserved by a producer that has started but not finished an
    /// iteration.
    reserved: u64,
    /// Nodes to wake when space becomes available.
    waiting_producers: Vec<NodeId>,
    /// Nodes to wake when data becomes available.
    waiting_consumers: Vec<NodeId>,
    /// Total elements ever pushed (for validation).
    pub total_pushed: u64,
}

impl Fifo {
    fn new(capacity: u64) -> Self {
        Fifo {
            capacity,
            occupancy: 0,
            reserved: 0,
            waiting_producers: Vec::new(),
            waiting_consumers: Vec::new(),
            total_pushed: 0,
        }
    }

    fn free_space(&self) -> u64 {
        self.capacity - self.occupancy - self.reserved
    }

    /// Elements currently readable.
    pub fn available(&self) -> u64 {
        self.occupancy
    }
}

/// What a node does; drives its scheduling behaviour.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// Injects `batch` elements into `out` every `period` cycles, `batches`
    /// times in total (a PLIO/GMIO input running at interface bandwidth).
    Source {
        /// Output FIFO.
        out: FifoId,
        /// Elements per batch.
        batch: u64,
        /// Cycles per batch (interface rate).
        period: u64,
        /// Batches remaining.
        batches: u64,
        /// Extra cycles before the first batch arrives (e.g. a GMIO/DDR
        /// round-trip latency; 0 for PLIO).
        initial_delay: u64,
    },
    /// A compute tile: consumes `elems` from every input, busies the core
    /// for `service` cycles, then produces `elems` into every output.
    Tile {
        /// (FIFO, elements consumed per iteration).
        inputs: Vec<(FifoId, u64)>,
        /// (FIFO, elements produced per iteration).
        outputs: Vec<(FifoId, u64)>,
        /// Service time of one iteration in cycles.
        service: u64,
    },
    /// Drains elements from `input` at interface rate, recording progress
    /// (a PLIO output; the measurement point for block timing).
    Sink {
        /// Input FIFO.
        input: FifoId,
        /// Elements that constitute one block (for the trace).
        block_elems: u64,
    },
}

#[derive(Clone, Debug)]
struct Node {
    kind: NodeKind,
    /// Busy until this time (a node runs one iteration at a time).
    busy: bool,
    /// While busy in cycle-stepped mode: the first tick that saw it so.
    busy_from: u64,
    iterations: u64,
}

/// Width of the per-node microarchitectural scoreboard maintained in
/// cycle-stepped mode (register scoreboard + 7 issue-slot pipeline state,
/// like instruction-level AIE simulators track per cycle).
///
/// The model: in every cycle `t` a busy node `id` seeds a 64-bit linear
/// congruential generator with `x₀ = t ^ key(id)` and walks it through
/// `SCOREBOARD_SLOTS × SCOREBOARD_PASSES` steps `xⱼ = a·xⱼ₋₁ + c`; step `j`
/// is XORed into slot `(j − 1) / SCOREBOARD_PASSES`. That state is what
/// [`SimTrace::micro_fingerprint`] folds. It is computed without walking
/// the chain, from two identities:
///
/// * `xⱼ = Aⱼ·x₀ + Cⱼ` with `Aⱼ = aʲ` and `Cⱼ = a·Cⱼ₋₁ + c` (wrapping), so
///   the steps of one cycle are independent multiply-adds of its seed;
/// * over an aligned block of `B = 2ᵏ` cycles starting at `t₀`,
///   `{(t₀+i) ^ key : i < B} = {((t₀ ^ key) & !(B−1)) + d : d < B}` — XOR by
///   `key` only permutes the low `k` bits — and XOR-accumulation does not
///   care about order, so step `j` contributes the arithmetic progression
///   `Aⱼ·base + Cⱼ + d·Aⱼ`: one multiply per block and one add per further
///   cycle.
pub const SCOREBOARD_SLOTS: usize = 32;
/// Update passes over the scoreboard per simulated cycle: LCG steps XORed
/// into each slot (see [`SCOREBOARD_SLOTS`]).
pub const SCOREBOARD_PASSES: usize = 8;

const LCG_MUL: u64 = 6_364_136_223_846_793_005;
const LCG_ADD: u64 = 1_442_695_040_888_963_407;

/// Jump-ahead coefficients of the scoreboard LCG: `JUMP[slot]` holds
/// `(Aⱼ, Cⱼ)` for the slot's passes, `j = slot·PASSES + pass + 1`.
static JUMP: [([u64; SCOREBOARD_PASSES], [u64; SCOREBOARD_PASSES]); SCOREBOARD_SLOTS] = {
    let mut table = [([0; SCOREBOARD_PASSES], [0; SCOREBOARD_PASSES]); SCOREBOARD_SLOTS];
    let (mut a, mut c) = (1u64, 0u64);
    let mut j = 0;
    while j < SCOREBOARD_SLOTS * SCOREBOARD_PASSES {
        a = a.wrapping_mul(LCG_MUL);
        c = c.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
        table[j / SCOREBOARD_PASSES].0[j % SCOREBOARD_PASSES] = a;
        table[j / SCOREBOARD_PASSES].1[j % SCOREBOARD_PASSES] = c;
        j += 1;
    }
    table
};

/// XOR into `sb` what a node with this `key` leaves there by being busy in
/// the cycles `from .. to`.
fn scoreboard_span(sb: &mut [u64; SCOREBOARD_SLOTS], key: u64, from: u64, to: u64) {
    for (slot, (a, c)) in sb.iter_mut().zip(&JUMP) {
        let mut acc = [0u64; SCOREBOARD_PASSES];
        let mut t = from;
        while t < to {
            // The largest aligned power-of-two block that starts at `t`
            // and fits; a block of one is the plain multiply-add.
            let aligned = 1u64 << t.trailing_zeros().min(63);
            let len = aligned.min(1 << (to - t).ilog2());
            let base = (t ^ key) & !(len - 1);
            let mut x: [u64; SCOREBOARD_PASSES] =
                std::array::from_fn(|p| a[p].wrapping_mul(base).wrapping_add(c[p]));
            for _ in 0..len {
                for p in 0..SCOREBOARD_PASSES {
                    acc[p] ^= x[p];
                    x[p] = x[p].wrapping_add(a[p]);
                }
            }
            t += len;
        }
        *slot ^= acc.iter().fold(0, |fold, v| fold ^ v);
    }
}

/// [`SimTrace::micro_fingerprint`] of a design's scoreboards.
fn fingerprint(scoreboards: &[[u64; SCOREBOARD_SLOTS]]) -> u64 {
    scoreboards
        .iter()
        .flatten()
        .fold(0, |acc, &v| acc.rotate_left(7) ^ v)
}

/// One recorded event in the execution trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Node that completed an iteration.
    pub node: NodeId,
    /// Iteration index (per node).
    pub iteration: u64,
    /// Completion time in cycles.
    pub time: u64,
}

/// Result of a simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimTrace {
    /// Iteration completions in time order.
    pub entries: Vec<TraceEntry>,
    /// Block-completion times at each sink, in time order.
    pub block_times: Vec<u64>,
    /// Final simulation time in cycles.
    pub end_time: u64,
    /// Fold of all per-tile scoreboard state (cycle-stepped mode only);
    /// deterministic for a given design and workload.
    pub micro_fingerprint: u64,
    /// Per-node count of blocked iteration attempts (empty input or full
    /// output at TryStart) — the lock-stall statistic hardware profilers
    /// report per kernel.
    pub stalls: Vec<u64>,
}

impl SimTrace {
    /// Steady-state cycles per block at the sink: mean inter-completion gap,
    /// discarding the pipeline-fill prefix (first quarter, at least one).
    pub fn cycles_per_block(&self) -> Option<f64> {
        if self.block_times.len() < 2 {
            return None;
        }
        let skip = (self.block_times.len() / 4).max(1);
        let steady = &self.block_times[skip.min(self.block_times.len() - 2)..];
        let span = (steady[steady.len() - 1] - steady[0]) as f64;
        Some(span / (steady.len() - 1) as f64)
    }

    /// Completion times of one node's iterations.
    pub fn iterations_of(&self, node: NodeId) -> Vec<u64> {
        self.entries
            .iter()
            .filter(|e| e.node == node)
            .map(|e| e.time)
            .collect()
    }

    /// Completion times of every node's iterations, one list per node of
    /// the design (like [`SimTrace::stalls`]): what
    /// [`SimTrace::iterations_of`] returns for each, from one pass.
    pub fn iterations_by_node(&self) -> Vec<Vec<u64>> {
        let mut by_node = vec![Vec::new(); self.stalls.len()];
        for e in &self.entries {
            by_node[e.node].push(e.time);
        }
        by_node
    }
}

/// Ordered only so it can sit in the heap's key; `seq` is unique, so the
/// comparison never gets this far.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Try to begin an iteration on the node.
    TryStart(NodeId),
    /// The node's in-flight iteration completes.
    Finish(NodeId),
}

/// The simulator: build with [`Sim::new`], add FIFOs and nodes, then
/// [`Sim::run`].
pub struct Sim {
    fifos: Vec<Fifo>,
    nodes: Vec<Node>,
    /// Pending events keyed by `(time, seq)`.
    events: BinaryHeap<Reverse<(u64, u64, Event)>>,
    seq: u64,
    time: u64,
    /// Elements drained so far per sink node (keyed by node id).
    sink_counts: Vec<u64>,
    /// Per-node microarchitectural scoreboard (cycle-stepped mode).
    scoreboards: Vec<[u64; SCOREBOARD_SLOTS]>,
    /// Blocked TryStart attempts per node.
    stall_counts: Vec<u64>,
    trace: SimTrace,
    /// Hard event budget to guard against accidental livelock in tests.
    max_events: u64,
    /// Cycle-stepped mode: the heap key `(time, seq)` of the next clock
    /// tick. Every tick before it has happened, so it is the first to see
    /// what the event being handled changes. The scoreboard of every busy
    /// node is advanced through every tick — the instruction-granular
    /// bookkeeping of real cycle-approximate simulators (aiesim). Timing
    /// results are identical either way.
    clock: Option<(u64, u64)>,
    /// Shared trace collector; events are stamped on the simulated-time
    /// axis (cycles scaled to ns), never wall clock.
    tracer: Tracer,
    /// ns per simulated cycle, for trace timestamps.
    ns_per_cycle: f64,
    /// Trace handle per node (named nodes only).
    node_refs: Vec<Option<KernelRef>>,
    /// Trace handle per FIFO.
    fifo_refs: Vec<ChannelRef>,
}

impl Sim {
    /// An empty design.
    pub fn new() -> Self {
        Sim {
            fifos: Vec::new(),
            nodes: Vec::new(),
            events: BinaryHeap::new(),
            seq: 0,
            time: 0,
            sink_counts: Vec::new(),
            scoreboards: Vec::new(),
            stall_counts: Vec::new(),
            trace: SimTrace::default(),
            max_events: u64::MAX,
            clock: None,
            tracer: Tracer::default(),
            ns_per_cycle: 1.0,
            node_refs: Vec::new(),
            fifo_refs: Vec::new(),
        }
    }

    /// Limit the number of processed events (diagnostics for broken
    /// designs).
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.max_events = budget;
        self
    }

    /// Enable cycle-stepped execution: every simulated core cycle updates
    /// the scoreboard of every busy node (tiles mid-iteration and sources
    /// with a batch in flight) and counts against the event budget, as if
    /// it were one simulator event. Traces are identical to the
    /// event-driven run; [`SimTrace::micro_fingerprint`] is the fold of the
    /// scoreboards (used by the Table 2 harness).
    pub fn with_cycle_stepping(mut self, enabled: bool) -> Self {
        // `run` gives the first tick its sequence number.
        self.clock = enabled.then_some((1, 0));
        self
    }

    /// Attach a trace collector. Events are stamped at simulated time
    /// scaled by `ns_per_cycle`, so runtime and simulator traces share one
    /// nanosecond axis. Call before adding FIFOs so they register.
    pub fn with_tracer(mut self, tracer: Tracer, ns_per_cycle: f64) -> Self {
        self.tracer = tracer;
        self.ns_per_cycle = if ns_per_cycle > 0.0 {
            ns_per_cycle
        } else {
            1.0
        };
        self
    }

    /// Name a node for the trace; unnamed nodes emit no kernel events.
    pub fn name_node(&mut self, node: NodeId, name: &str) {
        if self.tracer.is_enabled() {
            self.node_refs[node] = Some(self.tracer.register_kernel(name));
        }
    }

    /// Simulated cycles → trace timestamp in ns.
    fn ts(&self, cycles: u64) -> u64 {
        (cycles as f64 * self.ns_per_cycle).round() as u64
    }

    /// Add a FIFO of the given element capacity; returns its id.
    pub fn add_fifo(&mut self, capacity: u64) -> FifoId {
        assert!(capacity >= 1);
        self.fifos.push(Fifo::new(capacity));
        let id = self.fifos.len() - 1;
        let name = if self.tracer.is_enabled() {
            format!("f{id}")
        } else {
            String::new()
        };
        self.fifo_refs
            .push(self.tracer.register_channel(&name, capacity));
        id
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.nodes.push(Node {
            kind,
            busy: false,
            busy_from: 0,
            iterations: 0,
        });
        self.sink_counts.push(0);
        self.scoreboards.push([0; SCOREBOARD_SLOTS]);
        self.stall_counts.push(0);
        self.node_refs.push(None);
        self.nodes.len() - 1
    }

    /// Inspect a FIFO (for tests and reports).
    pub fn fifo(&self, id: FifoId) -> &Fifo {
        &self.fifos[id]
    }

    fn schedule(&mut self, time: u64, event: Event) {
        self.seq += 1;
        self.events.push(Reverse((time, self.seq, event)));
    }

    /// Schedule an iteration's completion.
    fn schedule_completion(&mut self, node: NodeId, service: u64) {
        self.schedule(self.time + service.max(1), Event::Finish(node));
    }

    /// Node `id` starts an iteration: the next tick is the first to see it
    /// busy.
    fn begin_busy(&mut self, id: NodeId) {
        self.nodes[id].busy = true;
        if let Some((next_tick, _)) = self.clock {
            self.nodes[id].busy_from = next_tick;
        }
    }

    /// Node `id` finishes its iteration: the next tick sees it idle. Every
    /// tick since [`Sim::begin_busy`] saw it busy, and those cycles go into
    /// its scoreboard here, in one step — the microarchitectural model
    /// (issue slots, register dependencies) that instruction-level
    /// simulators like aiesim update cycle by cycle. Timing results are
    /// unaffected.
    fn end_busy(&mut self, id: NodeId) {
        self.nodes[id].busy = false;
        if let Some((next_tick, _)) = self.clock {
            let key = (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let from = self.nodes[id].busy_from;
            scoreboard_span(&mut self.scoreboards[id], key, from, next_tick);
        }
    }

    /// Charge `events` against the budget.
    fn charge(&self, processed: &mut u64, events: u64) {
        *processed += events;
        if *processed > self.max_events {
            panic!(
                "simulation exceeded event budget ({} events) — \
                 likely a livelocked design",
                self.max_events
            );
        }
    }

    /// Run until no events remain; returns the trace.
    pub fn run(mut self) -> SimTrace {
        self.tracer.emit_at(0, TraceEvent::RunBegin);
        for id in 0..self.nodes.len() {
            self.schedule(0, Event::TryStart(id));
        }
        if let Some((_, seq)) = &mut self.clock {
            // The global cycle driver is queued behind the first attempts.
            self.seq += 1;
            *seq = self.seq;
        }
        let mut processed = 0u64;
        while let Some(Reverse((time, seq, event))) = self.events.pop() {
            if let Some((t, _)) = self.clock.filter(|&tick| tick < (time, seq)) {
                // The clock runs up to this event. A tick is queued by the
                // one before it, so all but the first are behind every
                // event already queued and come before this one iff they
                // are earlier in time; the next is behind it.
                let ticks = (time - t).max(1);
                self.charge(&mut processed, ticks);
                self.seq += 1;
                self.clock = Some((t + ticks, self.seq));
            }
            self.charge(&mut processed, 1);
            self.time = time;
            match event {
                Event::Finish(node) => self.handle_finish(node),
                Event::TryStart(node) => self.handle_try_start(node),
            }
        }
        // The tick that finds the heap empty is the last; nothing is busy.
        self.charge(&mut processed, self.clock.is_some() as u64);
        self.finish()
    }

    fn finish(mut self) -> SimTrace {
        self.tracer.emit_at(self.ts(self.time), TraceEvent::RunEnd);
        self.trace.micro_fingerprint = fingerprint(&self.scoreboards);
        self.trace.end_time = self.time;
        self.trace.stalls = self.stall_counts;
        self.trace
    }

    /// Record a blocked iteration attempt: a kernel stall marker plus the
    /// channel-side block event, mirroring the runtime's vocabulary.
    fn trace_stall(&self, id: NodeId, fifo: FifoId, side: BlockSide) {
        if let Some(kernel) = self.node_refs[id] {
            let ts = self.ts(self.time);
            self.tracer.emit_at(ts, TraceEvent::Stall { kernel });
            self.tracer.emit_at(
                ts,
                TraceEvent::ChannelBlock {
                    channel: self.fifo_refs[fifo],
                    side,
                },
            );
        }
    }

    fn trace_pop(&self, fifo: FifoId) {
        if self.tracer.is_enabled() {
            self.tracer.emit_at(
                self.ts(self.time),
                TraceEvent::ChannelPop {
                    channel: self.fifo_refs[fifo],
                    occupancy: self.fifos[fifo].occupancy,
                },
            );
        }
    }

    fn trace_push(&self, fifo: FifoId) {
        if self.tracer.is_enabled() {
            self.tracer.emit_at(
                self.ts(self.time),
                TraceEvent::ChannelPush {
                    channel: self.fifo_refs[fifo],
                    occupancy: self.fifos[fifo].occupancy,
                },
            );
        }
    }

    fn handle_try_start(&mut self, id: NodeId) {
        if self.nodes[id].busy {
            return;
        }
        match self.nodes[id].kind {
            NodeKind::Source {
                out,
                batch,
                period,
                batches,
                initial_delay,
            } => {
                if batches == 0 {
                    return;
                }
                if self.fifos[out].free_space() < batch {
                    self.fifos[out].waiting_producers.push(id);
                    self.stall_counts[id] += 1;
                    self.trace_stall(id, out, BlockSide::Write);
                    return;
                }
                let delay = if self.nodes[id].iterations == 0 {
                    initial_delay
                } else {
                    0
                };
                self.fifos[out].reserved += batch;
                self.begin_busy(id);
                self.schedule(self.time + period + delay, Event::Finish(id));
            }
            NodeKind::Tile {
                ref mut inputs,
                ref mut outputs,
                service,
            } => {
                // The port lists leave the node for the attempt, which
                // needs `&mut self`, and go back after it.
                let (ins, outs) = (mem::take(inputs), mem::take(outputs));
                self.try_start_tile(id, &ins, &outs, service);
                if let NodeKind::Tile {
                    inputs, outputs, ..
                } = &mut self.nodes[id].kind
                {
                    (*inputs, *outputs) = (ins, outs);
                }
            }
            NodeKind::Sink { input, block_elems } => {
                let avail = self.fifos[input].available();
                if avail == 0 {
                    self.fifos[input].waiting_consumers.push(id);
                    return;
                }
                self.fifos[input].occupancy -= avail;
                self.trace_pop(input);
                if let Some(kernel) = self.node_refs[id] {
                    self.tracer.emit_at(
                        self.ts(self.time),
                        TraceEvent::SinkIo {
                            kernel,
                            elements: avail,
                        },
                    );
                }
                self.wake_producers(input);
                let before = self.sink_counts[id];
                let after = before + avail;
                self.sink_counts[id] = after;
                // Record a block completion each time a block boundary is
                // crossed.
                let mut b = before / block_elems;
                while (b + 1) * block_elems <= after {
                    self.trace.block_times.push(self.time);
                    b += 1;
                }
                // Re-arm for more data.
                self.fifos[input].waiting_consumers.push(id);
            }
        }
    }

    fn try_start_tile(
        &mut self,
        id: NodeId,
        inputs: &[(FifoId, u64)],
        outputs: &[(FifoId, u64)],
        service: u64,
    ) {
        for &(f, n) in inputs {
            if self.fifos[f].available() < n {
                self.fifos[f].waiting_consumers.push(id);
                self.stall_counts[id] += 1;
                self.trace_stall(id, f, BlockSide::Read);
                return;
            }
        }
        for &(f, n) in outputs {
            if self.fifos[f].free_space() < n {
                self.fifos[f].waiting_producers.push(id);
                self.stall_counts[id] += 1;
                self.trace_stall(id, f, BlockSide::Write);
                return;
            }
        }
        // Consume inputs now (frees upstream space) and reserve
        // output space for the duration of the iteration.
        for &(f, n) in inputs {
            self.fifos[f].occupancy -= n;
            self.trace_pop(f);
            self.wake_producers(f);
        }
        for &(f, n) in outputs {
            self.fifos[f].reserved += n;
        }
        self.begin_busy(id);
        self.schedule_completion(id, service);
    }

    fn handle_finish(&mut self, id: NodeId) {
        self.end_busy(id);
        let iteration = self.nodes[id].iterations;
        self.nodes[id].iterations += 1;
        match &mut self.nodes[id].kind {
            NodeKind::Source {
                out,
                batch,
                batches,
                ..
            } => {
                let (out, batch) = (*out, *batch);
                *batches -= 1;
                let more = *batches > 0;
                self.fifos[out].reserved -= batch;
                self.fifos[out].occupancy += batch;
                self.fifos[out].total_pushed += batch;
                self.trace_push(out);
                if let Some(kernel) = self.node_refs[id] {
                    self.tracer.emit_at(
                        self.ts(self.time),
                        TraceEvent::SourceIo {
                            kernel,
                            elements: batch,
                        },
                    );
                }
                self.wake_consumers(out);
                if more {
                    self.schedule(self.time, Event::TryStart(id));
                }
            }
            NodeKind::Tile {
                outputs, service, ..
            } => {
                // Lent out of the node while `&mut self` is needed.
                let (outs, service) = (mem::take(outputs), *service);
                for &(f, n) in &outs {
                    self.fifos[f].reserved -= n;
                    self.fifos[f].occupancy += n;
                    self.fifos[f].total_pushed += n;
                    self.trace_push(f);
                    self.wake_consumers(f);
                }
                if let NodeKind::Tile { outputs, .. } = &mut self.nodes[id].kind {
                    *outputs = outs;
                }
                self.trace.entries.push(TraceEntry {
                    node: id,
                    iteration,
                    time: self.time,
                });
                if let Some(kernel) = self.node_refs[id] {
                    self.tracer.emit_at(
                        self.ts(self.time),
                        TraceEvent::IterationEnd {
                            kernel,
                            iteration,
                            start_ns: self.ts(self.time.saturating_sub(service.max(1))),
                        },
                    );
                }
                self.schedule(self.time, Event::TryStart(id));
            }
            NodeKind::Sink { .. } => {}
        }
    }

    fn wake_producers(&mut self, f: FifoId) {
        let waiters = mem::take(&mut self.fifos[f].waiting_producers);
        self.wake(f, BlockSide::Write, &waiters);
        self.fifos[f].waiting_producers = emptied(waiters);
    }

    fn wake_consumers(&mut self, f: FifoId) {
        let waiters = mem::take(&mut self.fifos[f].waiting_consumers);
        self.wake(f, BlockSide::Read, &waiters);
        self.fifos[f].waiting_consumers = emptied(waiters);
    }

    /// Let everything parked on `side` of `f` try again.
    fn wake(&mut self, f: FifoId, side: BlockSide, waiters: &[NodeId]) {
        if !waiters.is_empty() && self.tracer.is_enabled() {
            self.tracer.emit_at(
                self.ts(self.time),
                TraceEvent::ChannelUnblock {
                    channel: self.fifo_refs[f],
                    side,
                },
            );
        }
        for &w in waiters {
            self.schedule(self.time, Event::TryStart(w));
        }
    }
}

/// The waiter list to hand back to its FIFO: empty, allocation kept.
fn emptied(mut waiters: Vec<NodeId>) -> Vec<NodeId> {
    waiters.clear();
    waiters
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::array::{uniform4, uniform8};
    use proptest::prelude::*;

    /// source → tile(service 10) → sink, 8 blocks of 16 elements.
    fn linear_design(service: u64, blocks: u64) -> SimTrace {
        let mut sim = Sim::new().with_event_budget(1_000_000);
        let f_in = sim.add_fifo(32);
        let f_out = sim.add_fifo(32);
        sim.add_node(NodeKind::Source {
            out: f_in,
            batch: 16,
            period: 16, // 1 elem/cycle
            batches: blocks,
            initial_delay: 0,
        });
        sim.add_node(NodeKind::Tile {
            inputs: vec![(f_in, 16)],
            outputs: vec![(f_out, 16)],
            service,
        });
        sim.add_node(NodeKind::Sink {
            input: f_out,
            block_elems: 16,
        });
        sim.run()
    }

    #[test]
    fn all_blocks_arrive() {
        let trace = linear_design(10, 8);
        assert_eq!(trace.block_times.len(), 8);
        assert!(trace.end_time > 0);
    }

    #[test]
    fn slow_tile_bounds_throughput() {
        // Tile service 40 > source period 16 → steady interval ≈ 40.
        let trace = linear_design(40, 32);
        let cpb = trace.cycles_per_block().unwrap();
        assert!(
            (cpb - 40.0).abs() < 1.0,
            "expected ~40 cycles/block, got {cpb}"
        );
    }

    #[test]
    fn fast_tile_is_source_bound() {
        // Tile service 4 < source period 16 → interval ≈ 16.
        let trace = linear_design(4, 32);
        let cpb = trace.cycles_per_block().unwrap();
        assert!(
            (cpb - 16.0).abs() < 1.0,
            "expected ~16 cycles/block, got {cpb}"
        );
    }

    #[test]
    fn two_stage_pipeline_overlaps() {
        // Two tiles of service 20 in a pipeline: steady-state interval must
        // be ~20 (pipelined), not 40 (serial).
        let mut sim = Sim::new().with_event_budget(1_000_000);
        let f0 = sim.add_fifo(64);
        let f1 = sim.add_fifo(64);
        let f2 = sim.add_fifo(64);
        sim.add_node(NodeKind::Source {
            out: f0,
            batch: 16,
            period: 4,
            batches: 64,
            initial_delay: 0,
        });
        for (fi, fo) in [(f0, f1), (f1, f2)] {
            sim.add_node(NodeKind::Tile {
                inputs: vec![(fi, 16)],
                outputs: vec![(fo, 16)],
                service: 20,
            });
        }
        sim.add_node(NodeKind::Sink {
            input: f2,
            block_elems: 16,
        });
        let trace = sim.run();
        assert_eq!(trace.block_times.len(), 64);
        let cpb = trace.cycles_per_block().unwrap();
        assert!((cpb - 20.0).abs() < 1.0, "expected ~20, got {cpb}");
    }

    #[test]
    fn backpressure_throttles_upstream() {
        // A tiny FIFO between a fast producer and a slow consumer: the
        // producer cannot run ahead more than the FIFO capacity.
        let mut sim = Sim::new().with_event_budget(1_000_000);
        let f0 = sim.add_fifo(16); // one batch deep
        let f1 = sim.add_fifo(16);
        sim.add_node(NodeKind::Source {
            out: f0,
            batch: 16,
            period: 1, // very fast
            batches: 16,
            initial_delay: 0,
        });
        sim.add_node(NodeKind::Tile {
            inputs: vec![(f0, 16)],
            outputs: vec![(f1, 16)],
            service: 100,
        });
        sim.add_node(NodeKind::Sink {
            input: f1,
            block_elems: 16,
        });
        let trace = sim.run();
        assert_eq!(trace.block_times.len(), 16);
        // Total time dominated by the slow tile: ≥ 16 × 100.
        assert!(trace.end_time >= 1600, "end={}", trace.end_time);
    }

    #[test]
    fn fork_join_design_completes() {
        // source → A → (f1, f2 broadcast modelled as two fifos) with B and C
        // consuming, then joined by D reading both.
        let mut sim = Sim::new().with_event_budget(1_000_000);
        let f0 = sim.add_fifo(64);
        let f1 = sim.add_fifo(64);
        let f2 = sim.add_fifo(64);
        let f3 = sim.add_fifo(64);
        let f4 = sim.add_fifo(64);
        let f5 = sim.add_fifo(64);
        sim.add_node(NodeKind::Source {
            out: f0,
            batch: 8,
            period: 8,
            batches: 32,
            initial_delay: 0,
        });
        // A broadcasts into f1 and f2.
        sim.add_node(NodeKind::Tile {
            inputs: vec![(f0, 8)],
            outputs: vec![(f1, 8), (f2, 8)],
            service: 10,
        });
        sim.add_node(NodeKind::Tile {
            inputs: vec![(f1, 8)],
            outputs: vec![(f3, 8)],
            service: 12,
        });
        sim.add_node(NodeKind::Tile {
            inputs: vec![(f2, 8)],
            outputs: vec![(f4, 8)],
            service: 9,
        });
        // D joins both branches.
        sim.add_node(NodeKind::Tile {
            inputs: vec![(f3, 8), (f4, 8)],
            outputs: vec![(f5, 8)],
            service: 5,
        });
        sim.add_node(NodeKind::Sink {
            input: f5,
            block_elems: 8,
        });
        let trace = sim.run();
        assert_eq!(trace.block_times.len(), 32);
        // Slowest stage (12) bounds the steady state.
        let cpb = trace.cycles_per_block().unwrap();
        assert!((cpb - 12.0).abs() < 1.5, "got {cpb}");
    }

    #[test]
    fn trace_iterations_are_monotone() {
        let trace = linear_design(10, 8);
        let times = trace.iterations_of(1);
        assert_eq!(times.len(), 8);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "event budget")]
    fn event_budget_catches_livelock() {
        // A self-feeding loop with no external input would spin; emulate by
        // giving a huge workload with a tiny budget.
        let mut sim = Sim::new().with_event_budget(10);
        let f0 = sim.add_fifo(4);
        sim.add_node(NodeKind::Source {
            out: f0,
            batch: 1,
            period: 1,
            batches: 1000,
            initial_delay: 0,
        });
        sim.add_node(NodeKind::Sink {
            input: f0,
            block_elems: 1,
        });
        let _ = sim.run();
    }

    #[test]
    fn cycles_per_block_requires_two_blocks() {
        let trace = linear_design(10, 1);
        assert!(trace.cycles_per_block().is_none());
    }

    #[test]
    fn stalls_are_counted_for_blocked_nodes() {
        // Slow tile behind a fast source: the source stalls on the full
        // input FIFO; the tile itself never stalls on input after fill.
        let mut sim = Sim::new().with_event_budget(1_000_000);
        let f0 = sim.add_fifo(16);
        let f1 = sim.add_fifo(1024);
        let src = sim.add_node(NodeKind::Source {
            out: f0,
            batch: 16,
            period: 1,
            batches: 32,
            initial_delay: 0,
        });
        let tile = sim.add_node(NodeKind::Tile {
            inputs: vec![(f0, 16)],
            outputs: vec![(f1, 16)],
            service: 100,
        });
        sim.add_node(NodeKind::Sink {
            input: f1,
            block_elems: 16,
        });
        let trace = sim.run();
        assert!(trace.stalls[src] > 0, "fast source must stall");
        // The tile only stalls briefly around startup/refill edges; the
        // producer-side backpressure dominates by far.
        assert!(
            trace.stalls[tile] < trace.stalls[src],
            "tile {} vs source {}",
            trace.stalls[tile],
            trace.stalls[src]
        );
    }

    #[test]
    fn cycle_stepping_preserves_timing() {
        // Same design, stepped and unstepped: identical traces, more
        // events under the hood.
        let build = |stepping: bool| {
            let mut sim = Sim::new()
                .with_event_budget(1_000_000)
                .with_cycle_stepping(stepping);
            let f_in = sim.add_fifo(32);
            let f_out = sim.add_fifo(32);
            sim.add_node(NodeKind::Source {
                out: f_in,
                batch: 16,
                period: 16,
                batches: 16,
                initial_delay: 0,
            });
            sim.add_node(NodeKind::Tile {
                inputs: vec![(f_in, 16)],
                outputs: vec![(f_out, 16)],
                service: 37,
            });
            sim.add_node(NodeKind::Sink {
                input: f_out,
                block_elems: 16,
            });
            sim.run()
        };
        let plain = build(false);
        let stepped = build(true);
        assert_eq!(plain.block_times, stepped.block_times);
        assert_eq!(plain.entries, stepped.entries);
        assert_eq!(plain.end_time, stepped.end_time);
        assert_eq!(plain.stalls, stepped.stalls);
        // Cycle-stepped mode actually maintained microarchitectural state.
        assert_eq!(plain.micro_fingerprint, 0);
        assert_ne!(stepped.micro_fingerprint, 0);
        // And is deterministic.
        assert_eq!(build(true).micro_fingerprint, stepped.micro_fingerprint);
    }

    /// One busy cycle of node `id`, the way the model is defined: the LCG
    /// seeded with the cycle and walked through every slot and pass.
    fn serial_cycle(sb: &mut [u64; SCOREBOARD_SLOTS], id: NodeId, cycle: u64) {
        let mut x = cycle ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for slot in sb.iter_mut() {
            for _ in 0..SCOREBOARD_PASSES {
                x = x.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
                *slot ^= x;
            }
        }
    }

    /// The cycle driver `Sim::run` replaced, kept as its oracle: the clock
    /// is an event on the heap, rescheduled one cycle at a time while real
    /// events remain, and every tick walks the scoreboard of every node
    /// that is busy at that point through the serial LCG chain.
    fn run_reference(mut sim: Sim) -> SimTrace {
        const TICK: Event = Event::TryStart(NodeId::MAX);
        for id in 0..sim.nodes.len() {
            sim.schedule(0, Event::TryStart(id));
        }
        // With the clock on the heap the handlers keep no scoreboard.
        if sim.clock.take().is_some() {
            sim.schedule(1, TICK);
        }
        let (mut processed, mut last_real_time) = (0, 0);
        while let Some(Reverse((time, _, event))) = sim.events.pop() {
            sim.charge(&mut processed, 1);
            sim.time = time;
            if event == TICK {
                for id in (0..sim.nodes.len()).filter(|&id| sim.nodes[id].busy) {
                    serial_cycle(&mut sim.scoreboards[id], id, time);
                }
                if !sim.events.is_empty() {
                    sim.schedule(time + 1, TICK);
                }
                continue;
            }
            last_real_time = time;
            match event {
                Event::Finish(node) => sim.handle_finish(node),
                Event::TryStart(node) => sim.handle_try_start(node),
            }
        }
        sim.time = last_real_time;
        sim.finish()
    }

    fn assert_same(got: &SimTrace, want: &SimTrace) {
        assert_eq!(got.entries, want.entries);
        assert_eq!(got.block_times, want.block_times);
        assert_eq!(got.end_time, want.end_time);
        assert_eq!(got.stalls, want.stalls);
        assert_eq!(
            got.micro_fingerprint, want.micro_fingerprint,
            "fingerprint {:#x} against the reference's {:#x}",
            got.micro_fingerprint, want.micro_fingerprint
        );
    }

    /// A small random design: a chain of one to four tiles, or the
    /// fork/join of `fork_join_design_completes`.
    #[derive(Clone, Debug)]
    struct Design {
        fork: bool,
        tiles: usize,
        services: [u64; 4],
        capacities: [u64; 8],
        elems: u64,
        period: u64,
        batches: u64,
        delayed: bool,
    }

    impl Design {
        fn build(&self, stepping: bool, budget: u64) -> Sim {
            let mut sim = Sim::new()
                .with_event_budget(budget)
                .with_cycle_stepping(stepping);
            let elems = self.elems;
            let f: Vec<FifoId> = self
                .capacities
                .iter()
                .map(|&c| sim.add_fifo(c.max(elems)))
                .collect();
            sim.add_node(NodeKind::Source {
                out: f[0],
                batch: elems,
                period: self.period,
                batches: self.batches,
                initial_delay: if self.delayed { 100 } else { 0 },
            });
            let mut tile = |inputs: &[FifoId], outputs: &[FifoId], service| {
                sim.add_node(NodeKind::Tile {
                    inputs: inputs.iter().map(|&f| (f, elems)).collect(),
                    outputs: outputs.iter().map(|&f| (f, elems)).collect(),
                    service,
                });
            };
            let last = if self.fork {
                tile(&[f[0]], &[f[1], f[2]], self.services[0]);
                tile(&[f[1]], &[f[3]], self.services[1]);
                tile(&[f[2]], &[f[4]], self.services[2]);
                tile(&[f[3], f[4]], &[f[5]], self.services[3]);
                f[5]
            } else {
                for i in 0..self.tiles {
                    tile(&[f[i]], &[f[i + 1]], self.services[i]);
                }
                f[self.tiles]
            };
            sim.add_node(NodeKind::Sink {
                input: last,
                block_elems: elems,
            });
            sim
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]
        #[test]
        fn stepped_run_matches_the_tick_by_tick_reference(
            shape in (any::<bool>(), 1usize..5, any::<bool>()),
            services in uniform4(1u64..41),
            capacities in uniform8(1u64..65),
            traffic in (1u64..9, 1u64..17, 1u64..25),
            stepping in any::<bool>(),
        ) {
            let ((fork, tiles, delayed), (elems, period, batches)) = (shape, traffic);
            let design = Design {
                fork, tiles, services, capacities, elems, period, batches, delayed,
            };
            let got = design.build(stepping, 1_000_000).run();
            let want = run_reference(design.build(stepping, 1_000_000));
            assert_same(&got, &want);
            prop_assert_eq!(got.micro_fingerprint != 0, stepping);
        }
    }

    /// The scoreboard fold of a design whose node `id` was busy in exactly
    /// the cycles `busy`, by the serial chain.
    fn fingerprint_by_hand(nodes: usize, busy: &[(NodeId, std::ops::Range<u64>)]) -> u64 {
        let mut scoreboards = vec![[0u64; SCOREBOARD_SLOTS]; nodes];
        for (id, cycles) in busy {
            for t in cycles.clone() {
                serial_cycle(&mut scoreboards[*id], *id, t);
            }
        }
        fingerprint(&scoreboards)
    }

    /// source (one batch after `period` cycles) → tile → sink.
    fn one_shot(period: u64, service: u64) -> Design {
        Design {
            fork: false,
            tiles: 1,
            services: [service; 4],
            capacities: [8; 8],
            elems: 1,
            period,
            batches: 1,
            delayed: false,
        }
    }

    fn stepped_fingerprint(design: &Design) -> u64 {
        let got = design.build(true, 1_000_000).run();
        assert_same(&got, &run_reference(design.build(true, 1_000_000)));
        got.micro_fingerprint
    }

    #[test]
    fn a_finish_queued_before_the_previous_tick_leaves_its_cycle_idle() {
        // The source's Finish at cycle 4 was queued at cycle 0, so it runs
        // before the tick of cycle 4, and so does the tile's at cycle 9:
        // a node is busy for one cycle less than its service time.
        assert_eq!(
            stepped_fingerprint(&one_shot(4, 5)),
            fingerprint_by_hand(3, &[(0, 1..4), (1, 5..9)])
        );
    }

    #[test]
    fn a_service_1_iteration_started_after_the_tick_is_busy_in_the_next() {
        // The tile starts at cycle 4 after that cycle's tick; its Finish at
        // cycle 5 is queued behind the tick of cycle 5, which sees it busy.
        assert_eq!(
            stepped_fingerprint(&one_shot(4, 1)),
            fingerprint_by_hand(3, &[(0, 1..4), (1, 5..6)])
        );
        // Likewise a source of period 1 in the very first cycle.
        assert_eq!(
            stepped_fingerprint(&one_shot(1, 3)),
            fingerprint_by_hand(3, &[(0, 1..2), (1, 2..4)])
        );
    }

    #[test]
    fn a_busy_span_need_not_be_a_whole_number_of_blocks() {
        // 37 busy cycles from cycle 4: blocks of 4, 8, 16, 8 and 1.
        assert_eq!(
            stepped_fingerprint(&one_shot(3, 38)),
            fingerprint_by_hand(3, &[(0, 1..3), (1, 4..41)])
        );
    }

    #[test]
    fn the_event_budget_counts_every_tick_as_the_reference_does() {
        fn panic_text(run: impl FnOnce() -> SimTrace + std::panic::UnwindSafe) -> Option<String> {
            let payload = std::panic::catch_unwind(run).err()?;
            Some(
                payload
                    .downcast_ref::<String>()
                    .expect("a formatted panic")
                    .clone(),
            )
        }
        let text = |budget: u64| {
            format!(
                "simulation exceeded event budget ({budget} events) — \
                 likely a livelocked design"
            )
        };
        // Eight real events (three first attempts, the source's finish and
        // the tile's, three retries) and 54 ticks: cycles 1 to 53 and the
        // one that finds the heap empty. Small budgets run out in the
        // middle of the tile's 49 busy cycles.
        let design = one_shot(3, 50);
        for budget in [0, 5, 20, 61, 62, 63] {
            let stepped = panic_text(|| design.build(true, budget).run());
            let reference = panic_text(|| run_reference(design.build(true, budget)));
            assert_eq!(stepped, reference, "budget {budget}");
            assert_eq!(stepped, (budget < 62).then(|| text(budget)));
        }
        assert_eq!(panic_text(|| design.build(false, 7).run()), Some(text(7)));
        assert_eq!(panic_text(|| design.build(false, 8).run()), None);
    }
}
