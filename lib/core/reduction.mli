(** Reduction of the BWG to a BWG' (Theorem 3, §5).

    For algorithms that let a blocked packet wait on several buffers at
    once, an acyclic BWG is not necessary: it suffices that {e some} subset
    of the waiting rule — wait-connected, with no True Cycles — exists.
    [removed] entries name dropped waiting options [(head, dest, target)]:
    "a packet destined [dest] whose header blocks in [head] no longer waits
    on [target]".  Removing a wait entry only shrinks the waiting sets; the
    routing relation (which buffers may be {e used}) is untouched, exactly
    as the paper prescribes.

    {!search} is the one Theorem-3 engine: the checker decides multi-wait
    algorithms with it and the synthesizer ({!Dfr_synth.Synth}) finds
    BWG's with it.  It follows the paper's design methodology — find a
    True Cycle, dissolve one of its edges, keep wait-connectivity as an
    invariant, backtrack — and learns a blocking clause from every True
    Cycle, branching on the clause's single wait entries once the edge
    moves are spent.  The clauses are exact (routes are fixed, so the
    True-Cycle property is monotone in the kept entries), which makes an
    exhausted search a Theorem-3 refutation.  It is exponential in the
    worst case — the paper says as much — so a budget caps it. *)

type removed = { head : int; dest : int; target : int }

type outcome =
  | Reduced of Bwg.t * removed list
      (** a verified BWG': wait-connected, no True Cycles; the removed
          entries ascend *)
  | Impossible
      (** exhaustive search: every wait-connected BWG' has a True Cycle,
          so by Theorem 3 the algorithm deadlocks *)
  | Gave_up of string  (** a cap was hit; no conclusion *)

type stats = {
  rebuilds : int;  (** BWG (re)constructions, the search's cost unit *)
  decisions : int;  (** edge moves and branch choices taken *)
  conflicts : int;  (** True Cycles discovered by probes *)
  learned : int;  (** distinct blocking clauses recorded *)
  pruned : int;  (** candidates rejected by a learned clause, no rebuild *)
  restored : int;  (** removals undone by the minimization pass *)
}

val true_cycle_status :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?class_limits:Cycle_class.limits ->
  Bwg.t ->
  ((int list * Cycle_class.packet list) option, string) result
(** One freedom probe of a candidate BWG': [Ok (Some (cycle, packets))]
    is the first True Cycle in enumeration order with its witness
    packets; [Ok None] means every cycle was exhaustively classified
    False; [Error reason] means a cap was hit before a verdict. *)

val verify_hint :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?class_limits:Cycle_class.limits ->
  State_space.t ->
  outcome option
(** Checks the algorithm's declarative [reduced_waits] hint, if present.
    [Some (Reduced _)] when the hint is sound; [Some (Gave_up _)] when it
    is wait-connected but cycles could not be ruled out exhaustively;
    [Some Impossible] is never returned. A broken hint yields
    [Some (Gave_up reason)]. *)

val search :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?class_limits:Cycle_class.limits ->
  ?budget:int ->
  ?domains:int ->
  ?minimize:bool ->
  State_space.t ->
  outcome * stats
(** Search for a BWG' from the full waiting rule of a wait-connected
    space.  [budget] bounds the number of BWG rebuilds (default 2000;
    [256 * budget] bounds the decisions).  [domains] parallelizes each
    BWG build (see {!Bwg.build}); the result does not depend on it.
    [minimize] (default false) ends with a greedy restore pass so the
    removed set is 1-minimal: re-admitting any single removed entry
    brings a True Cycle back.  The [Reduced] BWG is the final candidate's,
    with no extra rebuild. *)
