open Dfr_network
open Dfr_routing
module Obs = Dfr_obs.Obs

type proof =
  | Acyclic_bwg
  | No_true_cycles of { cycles_examined : int }
  | Reduced_bwg of {
      via_hint : bool;
      removed : Reduction.removed list;
      full_bwg_cycles : int;
    }

type failure =
  | Stuck_states of (int * int) list
  | Not_wait_connected of (int * int) list
  | Knot of Deadlock_config.t
  | True_cycle of { cycle : int list; packets : Cycle_class.packet list }
  | No_reduction of { cycle : int list; packets : Cycle_class.packet list }

type verdict =
  | Deadlock_free of proof
  | Deadlock_possible of failure
  | Unknown of string

type report = {
  verdict : verdict;
  space : State_space.t;
  bwg : Bwg.t;
  bwg_cycles : int option;
}

(* Classify every cycle, shortest first (stable sort, so equal lengths
   keep enumeration order); short-circuit on the first True one (short
   cycles are both the likeliest witnesses and the cheapest to classify).

   With [domains > 1] the classifications fan out over OCaml 5 domains.
   The verdict is kept bit-for-bit deterministic: the reported True Cycle
   is the one of minimal index in the sorted order, exactly what the
   serial scan short-circuits on.  Workers may skip an index [i] only
   once a True Cycle is already recorded at some index < i — such an [i]
   can never be the minimum, so skipping preserves the result while still
   giving an early exit. *)
let scan_cycles ?class_limits ?(domains = 1) bwg cycles =
  Obs.span "checker.classify" @@ fun () ->
  let cycles =
    List.map (fun c -> (List.length c, c)) cycles
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  let classify c = Cycle_class.classify ?limits:class_limits bwg c in
  let n = List.length cycles in
  (* [checker.cycles.classified] counts classifications that contribute to
     the verdict: with a True Cycle at sorted index i that is i + 1 (every
     cycle below it plus the witness), otherwise all n — identical between
     the serial and parallel scans even though parallel workers may
     opportunistically classify further cycles before the short-circuit
     propagates. *)
  let classified k = Obs.count "checker.cycles.classified" k in
  (* wormhole classification walks lazily cached per-destination move
     graphs; the structural BWG build no longer populates that cache, so
     materialize here — identically on the serial and the parallel scans —
     keeping the cache counters independent of [--domains] (and making the
     fan-out safe, since the lazy cache must not be populated
     concurrently) *)
  (if n > 1 then
     let space = Bwg.space bwg in
     if Net.switching (State_space.net space) = Net.Wormhole then
       State_space.materialize_move_graphs ~domains space);
  if domains <= 1 || n <= 1 then
    let rec go uncertain examined = function
      | [] ->
        classified examined;
        `All_false (examined, uncertain)
      | c :: rest -> (
        match classify c with
        | Cycle_class.True_cycle packets ->
          classified (examined + 1);
          `True (c, packets)
        | Cycle_class.False_resource_cycle { exhaustive } ->
          go (uncertain || not exhaustive) (examined + 1) rest)
    in
    go false 0 cycles
  else begin
    let arr = Array.of_list cycles in
    let verdicts = Array.make n None in
    let best = Atomic.make max_int in
    let n_dom = min domains n in
    let worker k () =
      Obs.span "checker.classify.worker" @@ fun () ->
      let i = ref k in
      while !i < n do
        if Atomic.get best > !i then
          verdicts.(!i) <- Some (classify arr.(!i));
        (match verdicts.(!i) with
        | Some (Cycle_class.True_cycle _) ->
          (* lower [best] to !i unless it is already smaller *)
          let rec lower () =
            let b = Atomic.get best in
            if !i < b && not (Atomic.compare_and_set best b !i) then lower ()
          in
          lower ()
        | _ -> ());
        i := !i + n_dom
      done
    in
    Dfr_util.Domain_pool.parallel ~domains:n_dom (fun k -> worker k ());
    let rec collect uncertain examined i =
      if i >= n then begin
        classified examined;
        `All_false (examined, uncertain)
      end
      else
        match verdicts.(i) with
        | Some (Cycle_class.True_cycle packets) ->
          classified (examined + 1);
          `True (arr.(i), packets)
        | Some (Cycle_class.False_resource_cycle { exhaustive }) ->
          collect (uncertain || not exhaustive) (examined + 1) (i + 1)
        | None ->
          (* skipped: only possible when a True Cycle exists below [i] *)
          collect uncertain examined (i + 1)
    in
    collect false 0 0
  end

(* The verdict pipeline downstream of the BWG build, factored out so the
   incremental re-checker (Incr) can run it against a replayed BWG: the
   stuck / wait-connectivity prefixes are passed in because Incr maintains
   them per destination, and everything after — acyclicity, knot, cycle
   enumeration, classification, reduction — is exactly [check]'s code, which
   is what makes incremental slow-path verdicts bit-for-bit identical to
   cold ones.  [unconnected] is only consulted when [stuck] is empty, so
   callers that already have stuck states may pass [[]] for it. *)
let decide ?cycle_limits ?class_limits ?(domains = 1) ~stuck ~unconnected space
    bwg =
  let algo = State_space.algo space in
  let n_cycles = ref None in
  let ran_knot = ref false and ran_scan = ref false and ran_classify = ref false in
  let stage ran name f =
    ran := true;
    Obs.span name f
  in
  let finish verdict =
    (* every trace carries the full pipeline: stages an early verdict made
       unnecessary appear as zero-duration spans *)
    if not !ran_knot then Obs.span "checker.knot" (fun () -> ());
    if not !ran_scan then Obs.span "checker.cycle-scan" (fun () -> ());
    if not !ran_classify then Obs.span "checker.classify" (fun () -> ());
    { verdict; space; bwg; bwg_cycles = !n_cycles }
  in
  match stuck with
  | _ :: _ -> finish (Deadlock_possible (Stuck_states stuck))
  | [] -> (
    match unconnected with
    | _ :: _ as states -> finish (Deadlock_possible (Not_wait_connected states))
    | [] ->
      if Bwg.is_acyclic bwg then finish (Deadlock_free Acyclic_bwg)
      else (
        (* Cheap polynomial knot test: a set of mutually blocking
           single-buffer packets survives in every BWG', so it is a
           deadlock under either waiting discipline (Theorems 2-3,
           necessity). *)
        match stage ran_knot "checker.knot" (fun () -> Deadlock_config.find space)
        with
        | Some config -> finish (Deadlock_possible (Knot config))
        | None -> (
          let cycles, cycles_exhaustive =
            stage ran_scan "checker.cycle-scan" (fun () ->
                Bwg.cycles ?limits:cycle_limits bwg)
          in
          n_cycles := Some (List.length cycles);
          Obs.count "checker.cycles.enumerated" (List.length cycles);
          ran_classify := true;
          match scan_cycles ?class_limits ~domains bwg cycles with
          | `True (cycle, packets) -> (
            match algo.Algo.wait with
            | Algo.Specific_wait ->
              (* Theorem 2 necessity: the witness is a deadlock. *)
              finish (Deadlock_possible (True_cycle { cycle; packets }))
            | Algo.Any_wait -> (
              (* Theorem 3: look for a BWG'. *)
              match Reduction.verify_hint ?cycle_limits ?class_limits space with
              | Some (Reduction.Reduced (_, removed)) ->
                finish
                  (Deadlock_free
                     (Reduced_bwg
                        {
                          via_hint = true;
                          removed;
                          full_bwg_cycles = List.length cycles;
                        }))
              | _ -> (
                match fst (Reduction.search ?cycle_limits ?class_limits space) with
                | Reduction.Reduced (_, removed) ->
                  finish
                    (Deadlock_free
                       (Reduced_bwg
                          {
                            via_hint = false;
                            removed;
                            full_bwg_cycles = List.length cycles;
                          }))
                | Reduction.Impossible ->
                  if cycles_exhaustive then
                    finish (Deadlock_possible (No_reduction { cycle; packets }))
                  else
                    finish (Unknown "cycle enumeration truncated during reduction")
                | Reduction.Gave_up reason -> finish (Unknown reason))))
          | `All_false (examined, uncertain) ->
            if uncertain || not cycles_exhaustive then
              finish
                (Unknown
                   (if cycles_exhaustive then "cycle classification hit its caps"
                    else "cycle enumeration truncated"))
            else
              (* Theorems 2 and 3 sufficiency with BWG' = BWG: only False
                 Resource Cycles remain. *)
              finish (Deadlock_free (No_true_cycles { cycles_examined = examined })))))

let check ?cycle_limits ?class_limits ?(domains = 1) net algo =
  Obs.span "checker.check" @@ fun () ->
  let space = State_space.build ~domains net algo in
  let bwg = Bwg.build ~domains space in
  let stuck = State_space.stuck_states ~domains space in
  let unconnected =
    if stuck = [] then Bwg.unconnected_states ~domains bwg else []
  in
  decide ?cycle_limits ?class_limits ~domains ~stuck ~unconnected space bwg

let verdict ?cycle_limits ?class_limits ?domains net algo =
  (check ?cycle_limits ?class_limits ?domains net algo).verdict

(* Serving entry point: a long-lived process checking untrusted inputs
   cannot afford [check]'s process-per-check error model, where a
   malformed algorithm (validation failure, a route function that
   raises) takes the whole process down.  Everything [check] touches is
   allocated per call — state space, BWG, worker domains — so calls are
   independent and may run concurrently from any number of domains; this
   wrapper only has to turn the two documented failure exceptions into
   data.  Asynchronous exceptions (Out_of_memory, Stack_overflow) are
   deliberately not caught: a worker cannot know how much of the heap
   they poisoned. *)
let check_result ?cycle_limits ?class_limits ?domains net algo =
  match check ?cycle_limits ?class_limits ?domains net algo with
  | report -> Ok report
  | exception Invalid_argument msg -> Error msg
  | exception Failure msg -> Error msg

let is_deadlock_free = function
  | Deadlock_free _ -> Some true
  | Deadlock_possible _ -> Some false
  | Unknown _ -> None

let pp_states net fmt states =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
    (fun fmt (b, d) -> Format.fprintf fmt "%s->n%d" (Net.describe_buffer net b) d)
    fmt states

let pp_cycle net fmt cycle =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " -> ")
    (fun fmt b -> Format.pp_print_string fmt (Net.describe_buffer net b))
    fmt cycle

let pp_verdict net fmt = function
  | Deadlock_free Acyclic_bwg ->
    Format.fprintf fmt "deadlock-free (Theorem 1: wait-connected, acyclic BWG)"
  | Deadlock_free (No_true_cycles { cycles_examined }) ->
    Format.fprintf fmt
      "deadlock-free (Theorem 2/3: %d BWG cycle(s), all False Resource Cycles)"
      cycles_examined
  | Deadlock_free (Reduced_bwg { via_hint; removed; full_bwg_cycles }) ->
    Format.fprintf fmt
      "deadlock-free (Theorem 3: BWG' %s, %d wait entr%s removed, full BWG had %d cycle(s))"
      (if via_hint then "verified from hint" else "found by search")
      (List.length removed)
      (if List.length removed = 1 then "y" else "ies")
      full_bwg_cycles
  | Deadlock_possible (Stuck_states states) ->
    Format.fprintf fmt "broken: states with no permitted output: %a" (pp_states net)
      states
  | Deadlock_possible (Not_wait_connected states) ->
    Format.fprintf fmt "deadlock: not wait-connected at %a" (pp_states net) states
  | Deadlock_possible (Knot config) ->
    Format.fprintf fmt
      "deadlock: %d mutually blocking packets (knot configuration)"
      (List.length config)
  | Deadlock_possible (True_cycle { cycle; packets }) ->
    Format.fprintf fmt "@[<v>deadlock: True Cycle %a@,%a@]" (pp_cycle net) cycle
      (Format.pp_print_list (Cycle_class.pp_packet net))
      packets
  | Deadlock_possible (No_reduction { cycle; packets }) ->
    Format.fprintf fmt
      "@[<v>deadlock: no wait-connected BWG' exists; e.g. True Cycle %a@,%a@]"
      (pp_cycle net) cycle
      (Format.pp_print_list (Cycle_class.pp_packet net))
      packets
  | Unknown reason -> Format.fprintf fmt "unknown (%s)" reason
