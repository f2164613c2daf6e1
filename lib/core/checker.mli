(** The paper's decision procedure, end to end.

    Given a network and a routing algorithm, the checker builds the
    reachable state space and the buffer waiting graph and then applies, in
    order:

    - {b Theorem 1}: wait-connected + acyclic BWG ⇒ deadlock-free;
    - {b Theorem 2} (specific-wait): deadlock-free ⇔ wait-connected and
      no True Cycle — a True Cycle yields the witness deadlock
      configuration of the necessity proof;
    - {b Theorem 3} (multi-wait): deadlock-free ⇔ some wait-connected
      BWG' has no True Cycle — tried first with the algorithm's verified
      hint, then by automatic reduction search; an exhaustive failed search
      is a deadlock verdict by the theorem's necessity direction.

    Because enumeration and classification are worst-case exponential, the
    checker can also return [Unknown] with the cap that was hit. *)

open Dfr_network
open Dfr_routing

type proof =
  | Acyclic_bwg  (** Theorem 1 *)
  | No_true_cycles of { cycles_examined : int }  (** Theorem 2 *)
  | Reduced_bwg of {
      via_hint : bool;
      removed : Reduction.removed list;
      full_bwg_cycles : int;
    }  (** Theorem 3 *)

type failure =
  | Stuck_states of (int * int) list
      (** reachable states with no permitted output: packets are lost *)
  | Not_wait_connected of (int * int) list
  | Knot of Deadlock_config.t
      (** a polynomial-time direct witness: mutually blocking single-buffer
          packets; such a set induces a True Cycle in {e every}
          wait-connected BWG', so it is a deadlock under both disciplines *)
  | True_cycle of { cycle : int list; packets : Cycle_class.packet list }
  | No_reduction of { cycle : int list; packets : Cycle_class.packet list }
      (** every wait-connected BWG' keeps a True Cycle (Theorem 3
          necessity); a witness from the full BWG is attached *)

type verdict =
  | Deadlock_free of proof
  | Deadlock_possible of failure
  | Unknown of string

type report = {
  verdict : verdict;
  space : State_space.t;
  bwg : Bwg.t;  (** built from the full waiting rule *)
  bwg_cycles : int option;
      (** cycles found in the full BWG (capped); [None] when the verdict
          was reached without enumerating them *)
}

val check :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?class_limits:Cycle_class.limits ->
  ?domains:int ->
  Net.t ->
  Algo.t ->
  report
(** [domains] parallelizes the BWG construction and the cycle
    classification scan over OCaml 5 domains (default 1; see
    {!Bwg.build}).  Verdicts are bit-for-bit identical to the serial
    run: the classification fan-out still reports the True Cycle of
    minimal index in the shortest-first order. *)

val decide :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?class_limits:Cycle_class.limits ->
  ?domains:int ->
  stuck:(int * int) list ->
  unconnected:(int * int) list ->
  State_space.t ->
  Bwg.t ->
  report
(** The verdict pipeline downstream of the BWG build — exactly the code
    {!check} runs after constructing [space] and [bwg], exposed for the
    incremental re-checker, which maintains the stuck / wait-connectivity
    state lists and the BWG per destination and replays them here.  [stuck]
    and [unconnected] must be what {!State_space.stuck_states} and
    {!Bwg.unconnected_states} would return (reachable-iteration order);
    [unconnected] is only consulted when [stuck] is empty, so callers
    holding stuck states may pass [[]]. *)

val verdict :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?class_limits:Cycle_class.limits ->
  ?domains:int ->
  Net.t ->
  Algo.t ->
  verdict
(** Just the verdict of {!check}. *)

val check_result :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?class_limits:Cycle_class.limits ->
  ?domains:int ->
  Net.t ->
  Algo.t ->
  (report, string) result
(** Re-entrant {!check} for long-lived callers (the serving layer): a
    structurally invalid algorithm or a raising route function becomes
    [Error msg] instead of an exception, and calls may run concurrently
    from multiple domains — every structure {!check} builds is allocated
    per call. *)

val is_deadlock_free : verdict -> bool option
(** [Some true] / [Some false] / [None] for [Unknown]. *)

val pp_verdict : Net.t -> Format.formatter -> verdict -> unit
