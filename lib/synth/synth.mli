(** Automatic BWG' synthesis, restriction repair, and optimality
    certification — the constructive side of the paper's Theorem 3.

    The checker decides deadlock freedom of a {e given} design; this
    module {e finds} designs:

    - {!synthesize} (Theorem 3 forward): find a wait-connected,
      True-Cycle-free subset of the waiting rule — a BWG' — for a
      multi-wait algorithm, without a hand-supplied hint.  It runs
      {!Reduction.search}, the same engine the checker decides
      multi-wait algorithms with, so its exhaustion is an honest [Unsat]
      — Theorem 3's necessity direction;
    - {!repair} (design methodology, §6): given a deadlocking algorithm,
      re-decide, for every (occupied buffer, destination) state and every
      physical hop it takes, {e which} virtual copy of that hop to use —
      a conflict-driven search over copy assignments whose solution space
      contains the classic dateline/layered designs.  Reassignments
      change occupancy, its value clauses are heuristic, and exhaustion
      only says [Gave_up]; the accepted candidate is instead re-verified
      end to end by the checker;
    - {!certify} (Theorem 6 style): prove a candidate restriction maximal
      by exhibiting, for every removed entry, a True Cycle that appears
      the moment that single entry is re-admitted — each witness is a
      machine-checkable certificate replayed with {!replay}.

    Every search is deterministic: branching follows clause activity with
    identifier ties, no wall clock or randomness enters, and [domains]
    only parallelizes BWG construction, whose merge is deterministic.

    A removable atom is a {!Reduction.removed} entry: "a packet destined
    [dest] whose header occupies [head] may wait on / move to [target]" —
    of the waiting rule ({!synthesize}) or of the widened routing
    relation ({!repair}). *)

open Dfr_network
open Dfr_routing
open Dfr_core

type success = {
  space : State_space.t;
      (** the candidate's state space — {!repair} rebuilds it from the
          repaired relation; {!synthesize} passes the input through *)
  bwg : Bwg.t;  (** the final candidate BWG: wait-connected, no True Cycle
                    found (exhaustively, for the verified paths) *)
  full_bwg : Bwg.t Lazy.t option;
      (** {!synthesize} only: the unreduced BWG, for overlay rendering;
          built on first use *)
  algo : Algo.t;  (** the input algorithm with the synthesized rule wired
                      in via {!Algo.with_waits} / {!Algo.with_relation} *)
  removed : Reduction.removed list;
      (** ascending; relative to the full waiting rule ({!synthesize}) or
          widened relation ({!repair}) *)
  widened : int;
      (** {!repair}: route entries the virtual-copy widening added on top
          of the original relation; [0] for {!synthesize} *)
  spec : (string, string) result;
      (** the result reprinted as a checkable [.dfr]
          ({!Dfr_spec.Printer}) *)
  stats : Reduction.stats;  (** the search's counters *)
}

type outcome =
  | Synthesized of success
  | Already_free of Checker.proof
      (** {!repair} only: the input needs no repair *)
  | Unsat of string
      (** {!synthesize} only, and honest: no wait-connected BWG' without a
          True Cycle exists (Theorem 3 ⇒ the algorithm deadlocks).
          {!repair} folds this case into [Gave_up] — unsatisfiability of
          one particular widening is not a verdict on the design. *)
  | Gave_up of string  (** a cap or budget hit; no conclusion *)

val synthesize :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?class_limits:Cycle_class.limits ->
  ?budget:int ->
  ?domains:int ->
  ?minimize:bool ->
  State_space.t ->
  outcome
(** Find a BWG' for the algorithm of [space]: the [Unsat] prechecks
    (stuck states, an empty waiting set, a knot), then
    {!Reduction.search}.  [budget] caps BWG rebuilds (default 4000).
    [minimize] (default false) runs a greedy restore pass so the removed
    set is 1-minimal — the form {!certify} expects.  An algorithm whose
    full BWG is already True-Cycle-free synthesizes with
    [removed = \[\]]. *)

val repair :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?class_limits:Cycle_class.limits ->
  ?budget:int ->
  ?domains:int ->
  Net.t ->
  Algo.t ->
  outcome
(** Repair a deadlocking algorithm.  The relation is first widened
    across the virtual copies of each physical resource (other virtual
    channels of the same link; other buffer classes of the same node) —
    a deadlocking single-VC design has no freedom left to restrict, so
    the unused copies must open first.  Restricting only the {e waiting}
    rule of that widened design cannot work in this model (movement
    follows routes, so the widened occupancy itself deadlocks — a knot);
    the search instead assigns, per state and physical hop, exactly one
    virtual copy.  Conflicts (True Cycles and knots of the candidate)
    learn value clauses — "at least one occupant of this cycle must take
    a different copy" — and per-destination deliverability from every
    injection is kept as an invariant of every reassignment
    (decrementally, via {!Dfr_graph.Reach}).  A greedy re-admission pass
    then restores removed copies wherever freedom survives, making the
    removal set 1-minimal, and the result is re-verified end to end with
    {!Checker.verdict} before being reported. *)

type cert_item = {
  relaxed : Reduction.removed;
  cycle : int list;
  packets : Cycle_class.packet list;
}
(** Re-admitting [relaxed] alone creates [cycle], realized by
    [packets]. *)

type certification =
  | Maximal of cert_item list  (** one witness per removed entry *)
  | Relaxable of Reduction.removed list
      (** these removals were unnecessary: re-admitting any one of them
          leaves the BWG' True-Cycle-free *)
  | Cert_unknown of string  (** a classification cap hit *)

val certify :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?class_limits:Cycle_class.limits ->
  ?domains:int ->
  State_space.t ->
  removed:Reduction.removed list ->
  certification
(** Theorem-6-style maximality: for each entry of [removed], rebuild the
    BWG with that single entry restored and demand a True Cycle.  Run it
    on a minimized {!synthesize} result. *)

val replay :
  ?class_limits:Cycle_class.limits ->
  ?domains:int ->
  State_space.t ->
  removed:Reduction.removed list ->
  cert_item ->
  bool
(** Independent check of one certificate: rebuild the relaxed BWG from
    scratch, confirm every consecutive pair of [cycle] is an edge, and
    re-classify the cycle through {!Cycle_class.classify} — the same
    machinery the checker trusts.  [removed] must be the certification's
    removed set. *)

val bwg_prime_dot : success -> string
(** DOT overlay of a {!synthesize} result: the full BWG with kept (BWG')
    edges solid and removed edges dashed, vertex labels in the paper's
    buffer notation. *)

val describe_entry : Net.t -> Reduction.removed -> string
