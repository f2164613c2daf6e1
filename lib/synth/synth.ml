(* Synthesis on top of the checker's machinery: BWG' synthesis, restriction
   repair, and maximality certificates.

   BWG' synthesis runs the one Theorem-3 engine, {!Reduction.search}, the
   same search the checker decides multi-wait algorithms with; this
   module adds the Unsat prechecks a design source needs (stuck states, an
   empty waiting set, a knot), wires the result into the algorithm and
   reprints it as a .dfr.  With routes fixed the engine's blocking clauses
   are exact, so its exhaustion is an honest Unsat — Theorem 3's necessity
   direction.

   Repair is a different search, over virtual-copy assignments instead of
   wait entries (see below): removing or reassigning route entries changes
   occupancy and reachability, a clause can outlive its cycle's
   realizability, so exhaustion only says Gave_up; the final candidate is
   instead re-verified end to end by the checker. *)

open Dfr_network
open Dfr_routing
open Dfr_core
module Csr = Dfr_graph.Csr
module Digraph = Dfr_graph.Digraph
module Dot = Dfr_graph.Dot
module Reach = Dfr_graph.Reach
module Obs = Dfr_obs.Obs
module Printer = Dfr_spec.Printer

type success = {
  space : State_space.t;
  bwg : Bwg.t;
  full_bwg : Bwg.t Lazy.t option;
  algo : Algo.t;
  removed : Reduction.removed list;
  widened : int;
  spec : (string, string) result;
  stats : Reduction.stats;
}

type outcome =
  | Synthesized of success
  | Already_free of Checker.proof
  | Unsat of string
  | Gave_up of string

let describe_entry net { Reduction.head; dest; target } =
  Printf.sprintf "%s -> %s for dest %d"
    (Net.describe_buffer net head)
    (Net.describe_buffer net target)
    dest

(* A filter dropping the [removed] wait entries, all but [except] *)
let without ~removed ~except =
  let out = Hashtbl.create 64 in
  List.iter
    (fun (r : Reduction.removed) ->
      if Some r <> except then Hashtbl.replace out (r.head, r.dest, r.target) ())
    removed;
  fun ~buf ~dest ws -> List.filter (fun t -> not (Hashtbl.mem out (buf, dest, t))) ws

(* ------------------------------------------------------------------ *)
(* mode 1: BWG' synthesis (waits shrink, routes fixed)                 *)

let synthesize ?cycle_limits ?class_limits ?(budget = 4000) ?(domains = 1)
    ?(minimize = false) space =
  Obs.span "synth.solve" @@ fun () ->
  let net = State_space.net space in
  let algo = State_space.algo space in
  if State_space.stuck_states space <> [] then
    Unsat
      "the routing relation dead-ends in stuck states; no waiting rule can \
       restore lost packets"
  else if
    State_space.filter_reachable space (fun ~buf ~dest ->
        (not (State_space.arrived space ~buf ~dest))
        && State_space.waits space ~buf ~dest = [])
    <> []
  then
    Unsat
      "not wait-connected: a reachable state already has an empty waiting set \
       under the full rule"
  else if Option.is_some (Deadlock_config.find space) then
    Unsat
      "a deadlocked single-buffer configuration (knot) exists: every \
       wait-connected BWG' keeps a True Cycle"
  else
    match
      Reduction.search ?cycle_limits ?class_limits ~budget ~domains ~minimize
        space
    with
    | Reduction.Gave_up msg, _ -> Gave_up msg
    | Reduction.Impossible, _ ->
      Unsat
        "exhaustive search: every wait-connected BWG' has a True Cycle \
         (Theorem 3 necessity)"
    | Reduction.Reduced (bwg, removed), stats ->
      let drop = without ~removed ~except:None in
      let algo' =
        Algo.with_waits algo (fun net' b ~dest ->
            drop ~buf:(Buf.id b) ~dest (algo.Algo.waits net' b ~dest))
      in
      Synthesized
        {
          space;
          bwg;
          full_bwg = Some (lazy (Bwg.build ~domains space));
          algo = algo';
          removed;
          widened = 0;
          spec = Printer.to_string net algo';
          stats;
        }

(* ------------------------------------------------------------------ *)
(* mode 2: restriction repair (routes shrink, from a widened relation)  *)

(* Virtual copies of a physical resource: the virtual channels of one
   directed link share (src, dst); the buffer classes of one SAF/VCT node
   share the node.  Widening a route set admits every copy of each
   resource it already uses — the unused copies are exactly the freedom a
   deadlocking single-VC design needs opened before restriction can
   help. *)
let copy_groups net =
  let groups = Hashtbl.create 64 in
  let key b =
    match Buf.kind b with
    | Buf.Channel { src; dst; _ } -> (0, src, dst)
    | Buf.Node_buffer { node; _ } -> (1, node, node)
    | Buf.Injection _ | Buf.Delivery _ -> assert false
  in
  List.iter
    (fun b ->
      let k = key b in
      let cur = Option.value (Hashtbl.find_opt groups k) ~default:[] in
      Hashtbl.replace groups k (Buf.id b :: cur))
    (Net.transit_buffers net);
  fun id ->
    let b = Net.buffer net id in
    if Buf.is_transit b then List.sort compare (Hashtbl.find groups (key b))
    else [ id ]

(* The direct wait-restriction route does not work here: movement
   follows routes in this model, so once the relation is widened the bad
   occupancy is reachable and the widened design has a knot — no waiting
   rule can save it (synthesize returns Unsat).  Nor does a monotone
   remove-only search over route entries: its blocking clauses are
   heuristic (removals change occupancy) and the clause-pruned region
   blows up exponentially (observed: millions of decisions between two
   BWG rebuilds on dragonfly-minimal-1vc).

   What repairs such designs in practice is re-deciding, per state and
   physical hop, WHICH virtual copy to use — the dateline/layered
   assignments all live in that space.  So the repair search is a
   conflict-driven search over copy assignments: a variable per (state,
   physical-copy group with >= 2 members), values its copies; a probe
   builds the candidate (route = assigned copies, waits = route) and
   asks for a knot or a True Cycle; a conflict's occupants yield the
   value clause "at least one of these states must take a different
   copy", with the cycle's wait-edge literals preferred for branching;
   decided variables are frozen down the subtree, so the tree is finite.
   Exactly-one-copy assignments preserve the input's physical structure,
   and per-destination deliverability from every injection is checked on
   every reassignment (decrementally, via Reach) as a belt-and-braces
   invariant.  Clauses over-approximate (another assignment elsewhere
   might break the cycle's occupancy), so exhaustion is only Gave_up. *)

type fvar = {
  f_head : int;
  f_dest : int;
  f_choices : int array; (* the copy group, ascending *)
  mutable f_value : int; (* index into f_choices *)
}

module VClauses = struct
  type lit = { lv : int; lval : int } (* variable index, choice index *)

  type t = {
    mutable arr : lit array array; (* full clause *)
    mutable branch : lit array array; (* preferred branch subset *)
    mutable sat : int array; (* literals with current value <> lval *)
    mutable n : int;
    occ : (int * int) list array; (* var -> (clause, lval) *)
    activity : int array; (* per variable *)
    seen : (string, unit) Hashtbl.t;
  }

  let create num_vars =
    {
      arr = Array.make 16 [||];
      branch = Array.make 16 [||];
      sat = Array.make 16 0;
      n = 0;
      occ = Array.make (max 1 num_vars) [];
      activity = Array.make (max 1 num_vars) 0;
      seen = Hashtbl.create 64;
    }

  let lit_compare a b =
    match compare a.lv b.lv with 0 -> compare a.lval b.lval | c -> c

  let key c =
    String.concat ","
      (List.map (fun l -> Printf.sprintf "%d=%d" l.lv l.lval)
         (Array.to_list c))

  let ensure t =
    if t.n = Array.length t.arr then begin
      let cap = 2 * t.n in
      let grow a fill =
        let a' = Array.make cap fill in
        Array.blit a 0 a' 0 t.n;
        a'
      in
      t.arr <- grow t.arr [||];
      t.branch <- grow t.branch [||];
      t.sat <- grow t.sat 0
    end

  (* returns true when the clause is new *)
  let learn t ~vars ~branch_lits lits =
    let c = Array.of_list (List.sort_uniq lit_compare lits) in
    let b = Array.of_list (List.sort_uniq lit_compare branch_lits) in
    Array.iter (fun l -> t.activity.(l.lv) <- t.activity.(l.lv) + 1) c;
    let k = key c in
    if Hashtbl.mem t.seen k then false
    else begin
      Hashtbl.add t.seen k ();
      ensure t;
      let sat =
        Array.fold_left
          (fun acc l -> if vars.(l.lv).f_value <> l.lval then acc + 1 else acc)
          0 c
      in
      t.arr.(t.n) <- c;
      t.sat.(t.n) <- sat;
      t.branch.(t.n) <- b;
      Array.iter (fun l -> t.occ.(l.lv) <- (t.n, l.lval) :: t.occ.(l.lv)) c;
      t.n <- t.n + 1;
      true
    end

  let on_change t v ~old_val ~new_val =
    List.iter
      (fun (i, lval) ->
        if lval = old_val then t.sat.(i) <- t.sat.(i) + 1
        else if lval = new_val then t.sat.(i) <- t.sat.(i) - 1)
      t.occ.(v)

  (* first violated clause, as (preferred branch set, full clause) *)
  let violated t =
    let rec go i =
      if i >= t.n then None
      else if t.sat.(i) = 0 then Some (t.branch.(i), t.arr.(i))
      else go (i + 1)
    in
    go 0
end

(* repair's search counters, frozen into the shared stats record *)
type mstats = {
  mutable m_rebuilds : int;
  mutable m_decisions : int;
  mutable m_conflicts : int;
  mutable m_learned : int;
  mutable m_pruned : int;
  mutable m_restored : int;
}

let freeze m =
  {
    Reduction.rebuilds = m.m_rebuilds;
    decisions = m.m_decisions;
    conflicts = m.m_conflicts;
    learned = m.m_learned;
    pruned = m.m_pruned;
    restored = m.m_restored;
  }

let emit m =
  Obs.count "synth.rebuilds" m.m_rebuilds;
  Obs.count "synth.decisions" m.m_decisions;
  Obs.count "synth.conflicts" m.m_conflicts;
  Obs.count "synth.clauses.learned" m.m_learned;
  Obs.count "synth.pruned" m.m_pruned;
  Obs.count "synth.restored" m.m_restored

exception Stop of string

let repair_search ?cycle_limits ?class_limits ~budget ~domains net algo =
  let num_nodes = Net.num_nodes net in
  let num_buffers = Net.num_buffers net in
  let group = copy_groups net in
  (* variables in (buffer asc, dest asc, group-min asc) order; fixed
     (singleton-group) targets are not searchable *)
  let vars = ref [] and num_vars = ref 0 in
  let fixed_of = Hashtbl.create 256 in (* (buf, dest) -> targets *)
  let var_ids_of = Hashtbl.create 256 in (* (buf, dest) -> var ids *)
  let lit_of = Hashtbl.create 256 in (* (buf, dest, target) -> (var, idx) *)
  let widened_delta = ref 0 in
  Array.iter
    (fun b ->
      if not (Buf.is_delivery b) then
        for dest = 0 to num_nodes - 1 do
          if Buf.head_node b <> dest then
            match algo.Algo.route net b ~dest with
            | [] -> ()
            | route ->
              let orig = List.sort_uniq compare route in
              let seen_groups = Hashtbl.create 4 in
              let fixed = ref [] and ids = ref [] in
              List.iter
                (fun t ->
                  let g = group t in
                  let gmin = List.hd g in
                  if not (Hashtbl.mem seen_groups gmin) then begin
                    Hashtbl.add seen_groups gmin ();
                    match g with
                    | [ only ] -> fixed := only :: !fixed
                    | _ ->
                      widened_delta :=
                        !widened_delta + List.length g
                        - List.length (List.filter (fun x -> List.mem x orig) g);
                      let choices = Array.of_list g in
                      let value =
                        (* least original member of the group *)
                        let rec first i =
                          if List.mem choices.(i) orig then i else first (i + 1)
                        in
                        first 0
                      in
                      let v =
                        {
                          f_head = Buf.id b;
                          f_dest = dest;
                          f_choices = choices;
                          f_value = value;
                        }
                      in
                      let vi = !num_vars in
                      incr num_vars;
                      vars := v :: !vars;
                      ids := vi :: !ids;
                      Array.iteri
                        (fun i t ->
                          Hashtbl.replace lit_of (Buf.id b, dest, t) (vi, i))
                        choices
                  end)
                orig;
              Hashtbl.replace fixed_of (Buf.id b, dest) (List.rev !fixed);
              Hashtbl.replace var_ids_of (Buf.id b, dest) (List.rev !ids)
        done)
    (Net.buffers net);
  let vars = Array.of_list (List.rev !vars) in
  let n = Array.length vars in
  (* keep sets: during the search each variable contributes exactly its
     assigned copy; the re-admission pass afterwards widens them *)
  let keep = Array.map (fun v -> Array.make (Array.length v.f_choices) false) vars in
  Array.iteri (fun i v -> keep.(i).(v.f_value) <- true) vars;
  let route' netv b ~dest =
    match Hashtbl.find_opt fixed_of (Buf.id b, dest) with
    | None -> algo.Algo.route netv b ~dest
    | Some fixed ->
      let chosen =
        List.concat_map
          (fun vi ->
            let v = vars.(vi) in
            List.filteri (fun i _ -> keep.(vi).(i))
              (Array.to_list v.f_choices))
          (Hashtbl.find var_ids_of (Buf.id b, dest))
      in
      List.sort compare (fixed @ chosen)
  in
  let cand = Algo.with_relation algo route' in
  (* per-destination deliverability over all widened entries; copies not
     currently kept are disabled *)
  let dest_edges = Array.make num_nodes [] in
  let add_edge d h t = dest_edges.(d) <- (h, t) :: dest_edges.(d) in
  Hashtbl.iter
    (fun (b, d) fixed -> List.iter (fun t -> add_edge d b t) fixed)
    fixed_of;
  Array.iter
    (fun v -> Array.iter (fun t -> add_edge v.f_dest v.f_head t) v.f_choices)
    vars;
  let sinks = Array.make num_nodes [] in
  for d = 0 to num_nodes - 1 do
    sinks.(d) <- [ Buf.id (Net.delivery net d) ]
  done;
  List.iter
    (fun b -> sinks.(Buf.head_node b) <- Buf.id b :: sinks.(Buf.head_node b))
    (Net.transit_buffers net);
  let sources = Array.make num_nodes [] in
  Array.iter
    (fun b ->
      match Buf.kind b with
      | Buf.Injection node ->
        for dest = 0 to num_nodes - 1 do
          if dest <> node && algo.Algo.route net b ~dest <> [] then
            sources.(dest) <- Buf.id b :: sources.(dest)
        done
      | _ -> ())
    (Net.buffers net);
  let reach =
    Array.init num_nodes (fun d ->
        Reach.create (Csr.of_edges num_buffers dest_edges.(d)) ~sinks:sinks.(d))
  in
  Array.iter
    (fun v ->
      Array.iteri
        (fun i t ->
          if i <> v.f_value then Reach.disable_edge reach.(v.f_dest) v.f_head t)
        v.f_choices)
    vars;
  let st =
    {
      m_rebuilds = 0;
      m_decisions = 0;
      m_conflicts = 0;
      m_learned = 0;
      m_pruned = 0;
      m_restored = 0;
    }
  in
  let clauses = VClauses.create n in
  let decided = Array.make (max 1 n) false in
  (* reassign vi to [value]; false (and no change) when deliverability
     from some injection would break *)
  let assign vi value =
    let v = vars.(vi) in
    if value = v.f_value then true
    else begin
      let r = reach.(v.f_dest) in
      Reach.enable_edge r v.f_head v.f_choices.(value);
      Reach.disable_edge r v.f_head v.f_choices.(v.f_value);
      if Reach.reaches_all r ~sources:sources.(v.f_dest) then begin
        VClauses.on_change clauses vi ~old_val:v.f_value ~new_val:value;
        keep.(vi).(v.f_value) <- false;
        keep.(vi).(value) <- true;
        v.f_value <- value;
        true
      end
      else begin
        Reach.enable_edge r v.f_head v.f_choices.(v.f_value);
        Reach.disable_edge r v.f_head v.f_choices.(value);
        false
      end
    end
  in
  let probe () =
    Obs.span "synth.attempt" @@ fun () ->
    match State_space.build net cand with
    | exception Invalid_argument msg ->
      Error ("internal: candidate relation rejected: " ^ msg)
    | space' -> (
      match Deadlock_config.find space' with
      | Some config -> Ok (Some (`Knot config))
      | None -> (
        let bwg = Bwg.build ~domains space' in
        match Reduction.true_cycle_status ?cycle_limits ?class_limits bwg with
        | Error _ as e -> e
        | Ok None -> Ok None
        | Ok (Some (_cycle, packets)) -> Ok (Some (`Cycle packets))))
  in
  let lit (h, d, t) =
    match Hashtbl.find_opt lit_of (h, d, t) with
    | Some (lv, lval) -> Some { VClauses.lv; lval }
    | None -> None (* a fixed, singleton-group entry: not searchable *)
  in
  (* a conflict's value clause; literals on fixed entries drop out *)
  let clause_of_conflict = function
    | `Knot config ->
      let lits =
        List.concat_map
          (fun (buf, dest) ->
            List.filter_map (fun t -> lit (buf, dest, t))
              (route' net (Net.buffer net buf) ~dest))
          config
      in
      (lits, lits)
    | `Cycle packets ->
      let wait_edges =
        List.filter_map
          (fun (p : Cycle_class.packet) ->
            match List.rev p.Cycle_class.path with
            | [] -> None
            | head :: _ ->
              lit (head, p.Cycle_class.dest, p.Cycle_class.waits_for))
          packets
      in
      let path_lits =
        List.concat_map
          (fun (p : Cycle_class.packet) ->
            let d = p.Cycle_class.dest in
            let rec along acc = function
              | [] | [ _ ] -> acc
              | a :: (b :: _ as rest) -> (
                match lit (a, d, b) with
                | Some l -> along (l :: acc) rest
                | None -> along acc rest)
            in
            along [] p.Cycle_class.path)
          packets
      in
      (wait_edges @ path_lits, wait_edges)
  in
  let max_decisions = 256 * budget in
  let rec fsolve () =
    match VClauses.violated clauses with
    | Some (preferred, full) ->
      st.m_pruned <- st.m_pruned + 1;
      fbranch preferred full
    | None -> (
      if st.m_rebuilds >= budget then
        raise
          (Stop
             (Printf.sprintf "search budget of %d BWG rebuilds exhausted"
                budget));
      st.m_rebuilds <- st.m_rebuilds + 1;
      match probe () with
      | Error reason -> raise (Stop reason)
      | Ok None -> true
      | Ok (Some conflict) -> (
        st.m_conflicts <- st.m_conflicts + 1;
        match clause_of_conflict conflict with
        | [], _ -> false (* only fixed entries involved: dead subtree *)
        | lits, branch_lits ->
          if VClauses.learn clauses ~vars ~branch_lits lits then
            st.m_learned <- st.m_learned + 1;
          fbranch
            (Array.of_list (List.sort_uniq VClauses.lit_compare branch_lits))
            (Array.of_list (List.sort_uniq VClauses.lit_compare lits))))
  and fbranch preferred full =
    (* two tiers: the cycle's wait-edge literals first, then the rest of
       the clause; within a tier most-active variable first, index ties *)
    let by_activity =
      List.stable_sort (fun a b ->
          match
            compare clauses.VClauses.activity.(b.VClauses.lv)
              clauses.VClauses.activity.(a.VClauses.lv)
          with
          | 0 -> VClauses.lit_compare a b
          | c -> c)
    in
    let pref = Array.to_list preferred in
    let rest =
      List.filter (fun l -> not (List.mem l pref)) (Array.to_list full)
    in
    let order = by_activity pref @ by_activity rest in
    List.exists
      (fun { VClauses.lv; lval } ->
        (not decided.(lv))
        && vars.(lv).f_value = lval
        && begin
             decided.(lv) <- true;
             let alts =
               List.filter (fun i -> i <> lval)
                 (List.init (Array.length vars.(lv).f_choices) Fun.id)
             in
             let ok =
               List.exists
                 (fun alt ->
                   if st.m_decisions >= max_decisions then
                     raise
                       (Stop
                          (Printf.sprintf "decision limit of %d exhausted"
                             max_decisions));
                   st.m_decisions <- st.m_decisions + 1;
                   assign lv alt
                   &&
                   let ok = fsolve () in
                   if not ok then ignore (assign lv lval : bool);
                   ok)
                 alts
             in
             if not ok then decided.(lv) <- false;
             ok
           end)
      order
  in
  (* greedy re-admission: restore each removed copy, ascending, and keep
     the restoration whenever the candidate stays free — the removal set
     becomes 1-minimal and the repaired design keeps what adaptivity it
     can.  Shares the probe budget; stops quietly when it runs out. *)
  let readmit () =
    Obs.span "synth.minimize" @@ fun () ->
    Array.iteri
      (fun vi v ->
        Array.iteri
          (fun i _ ->
            if (not keep.(vi).(i)) && st.m_rebuilds < budget then begin
              keep.(vi).(i) <- true;
              st.m_rebuilds <- st.m_rebuilds + 1;
              match probe () with
              | Ok None -> st.m_restored <- st.m_restored + 1
              | Ok (Some _) | Error _ -> keep.(vi).(i) <- false
            end)
          v.f_choices)
      vars
  in
  let removed_entries () =
    let acc = ref [] in
    Array.iteri
      (fun vi v ->
        Array.iteri
          (fun i t ->
            if not keep.(vi).(i) then
              acc := { Reduction.head = v.f_head; dest = v.f_dest; target = t } :: !acc)
          v.f_choices)
      vars;
    List.sort compare !acc
  in
  match fsolve () with
  | exception Stop msg ->
    emit st;
    Gave_up msg
  | false ->
    emit st;
    Gave_up
      "search exhausted without a repair (value clauses are heuristic — \
       reassignments change occupancy — so this is no unsatisfiability \
       claim)"
  | true -> (
    readmit ();
    let final = Algo.with_relation algo route' ~name:(algo.Algo.name ^ "+repair") in
    (* independent end-to-end verification through the checker *)
    match Checker.verdict ?cycle_limits ?class_limits ~domains net final with
    | Checker.Deadlock_free _ ->
      let space' = State_space.build net final in
      let bwg = Bwg.build ~domains space' in
      let spec = Printer.to_string net final in
      emit st;
      Synthesized
        {
          space = space';
          bwg;
          full_bwg = None;
          algo = final;
          removed = removed_entries ();
          widened = !widened_delta;
          spec;
          stats = freeze st;
        }
    | Checker.Deadlock_possible _ ->
      emit st;
      Gave_up
        "internal: the repaired candidate failed end-to-end re-verification"
    | Checker.Unknown reason ->
      emit st;
      Gave_up ("repaired candidate could not be re-verified: " ^ reason))

let repair ?cycle_limits ?class_limits ?(budget = 4000) ?(domains = 1) net
    algo =
  Obs.span "synth.solve" @@ fun () ->
  match Checker.verdict ?cycle_limits ?class_limits ~domains net algo with
  | Checker.Deadlock_free proof -> Already_free proof
  | Checker.Unknown reason -> Gave_up ("baseline check inconclusive: " ^ reason)
  | Checker.Deadlock_possible (Checker.Stuck_states _) ->
    Gave_up
      "the input relation has stuck states; repair removes entries and \
       cannot restore lost packets"
  | Checker.Deadlock_possible _ ->
    repair_search ?cycle_limits ?class_limits ~budget ~domains net algo

(* ------------------------------------------------------------------ *)
(* mode 3: Theorem-6-style maximality certification                     *)

type cert_item = {
  relaxed : Reduction.removed;
  cycle : int list;
  packets : Cycle_class.packet list;
}

type certification =
  | Maximal of cert_item list
  | Relaxable of Reduction.removed list
  | Cert_unknown of string

(* the waiting rule of [space] with every removal but [relaxed] applied *)
let relaxed_wait_sets space ~removed relaxed =
  let drop = without ~removed ~except:(Some relaxed) in
  fun ~buf ~dest -> drop ~buf ~dest (State_space.waits space ~buf ~dest)

let certify ?cycle_limits ?class_limits ?(domains = 1) space ~removed =
  Obs.span "synth.certify" @@ fun () ->
  let rec go items relaxable = function
    | [] ->
      if relaxable = [] then Maximal (List.rev items)
      else Relaxable (List.rev relaxable)
    | r :: rest -> (
      let wait_sets = relaxed_wait_sets space ~removed r in
      let bwg = Bwg.build ~wait_sets ~domains space in
      match Reduction.true_cycle_status ?cycle_limits ?class_limits bwg with
      | Error reason -> Cert_unknown reason
      | Ok None -> go items (r :: relaxable) rest
      | Ok (Some (cycle, packets)) ->
        go ({ relaxed = r; cycle; packets } :: items) relaxable rest)
  in
  go [] [] removed

let replay ?class_limits ?(domains = 1) space ~removed item =
  let wait_sets = relaxed_wait_sets space ~removed item.relaxed in
  let bwg = Bwg.build ~wait_sets ~domains space in
  let g = Bwg.graph bwg in
  let edges_ok =
    match item.cycle with
    | [] -> false
    | first :: _ ->
      let rec chk = function
        | [] -> false
        | [ last ] -> Digraph.mem_edge g last first
        | a :: (b :: _ as rest) -> Digraph.mem_edge g a b && chk rest
      in
      chk item.cycle
  in
  edges_ok
  &&
  match Cycle_class.classify ?limits:class_limits bwg item.cycle with
  | Cycle_class.True_cycle _ -> true
  | Cycle_class.False_resource_cycle _ -> false

(* ------------------------------------------------------------------ *)
(* DOT overlay: BWG with the synthesized BWG' edges highlighted         *)

let bwg_prime_dot s =
  match s.full_bwg with
  | None ->
    invalid_arg "Synth.bwg_prime_dot: result carries no full BWG (repair?)"
  | Some full ->
    let net = State_space.net s.space in
    let fg = Bwg.graph (Lazy.force full) in
    let rg = Bwg.graph s.bwg in
    let touched = Array.make (Digraph.num_vertices fg) false in
    Digraph.iter_edges
      (fun u v ->
        touched.(u) <- true;
        touched.(v) <- true)
      fg;
    Dot.to_string ~name:"bwg_prime"
      ~vertex_label:(fun v -> Net.describe_buffer net v)
      ~vertex_attrs:(fun v ->
        if touched.(v) then [] else [ ("style", "invis") ])
      ~edge_attrs:(fun u v ->
        if Digraph.mem_edge rg u v then
          [ ("color", "#1f78b4"); ("penwidth", "1.6") ]
        else [ ("color", "#9e9e9e"); ("style", "dashed") ])
      fg
