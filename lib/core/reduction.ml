open Dfr_network
module Obs = Dfr_obs.Obs

type removed = { head : int; dest : int; target : int }

type outcome =
  | Reduced of Bwg.t * removed list
  | Impossible
  | Gave_up of string

type stats = {
  rebuilds : int;
  decisions : int;
  conflicts : int;
  learned : int;
  pruned : int;
  restored : int;
}

(* No True Cycles in [bwg]?  Returns [Ok (Some witness)] when a True Cycle
   exists, [Ok None] when provably none does, [Error reason] when a cap was
   hit.  Cycles are classified in enumeration order. *)
let true_cycle_status ?cycle_limits ?class_limits bwg =
  let cycles, cycles_exhaustive = Bwg.cycles ?limits:cycle_limits bwg in
  let rec go uncertain = function
    | [] -> if uncertain then Error "cycle classification hit its caps" else Ok None
    | c :: rest -> (
      match Cycle_class.classify ?limits:class_limits bwg c with
      | Cycle_class.True_cycle packets -> Ok (Some (c, packets))
      | Cycle_class.False_resource_cycle { exhaustive } ->
        go (uncertain || not exhaustive) rest)
  in
  match go (not cycles_exhaustive) cycles with
  | Ok None when not cycles_exhaustive -> Error "cycle enumeration truncated"
  | r -> r

let verify_hint ?cycle_limits ?class_limits space =
  match State_space.reduced_waits space with
  | None -> None
  | Some wait_sets ->
    Obs.span "reduction.verify-hint" @@ fun () ->
    let bwg = Bwg.build ~wait_sets space in
    if not (Bwg.is_wait_connected bwg) then
      Some (Gave_up "reduced-waits hint is not wait-connected")
    else (
      match true_cycle_status ?cycle_limits ?class_limits bwg with
      | Ok None -> Some (Reduced (bwg, []))
      | Ok (Some _) -> Some (Gave_up "reduced-waits hint still has a True Cycle")
      | Error reason -> Some (Gave_up ("hint verification: " ^ reason)))

(* Wait entries that generate BWG edge q -> w: pairs (head, dest) with
   [w] in the current waiting set of (head, dest) and [head] reachable
   from [q] by a continuation (wormhole) or equal to [q] (SAF/VCT). *)
let generating_entries space current ~wormhole q w =
  let acc = ref [] in
  for dest = 0 to State_space.num_nodes space - 1 do
    if State_space.is_reachable space ~buf:q ~dest then begin
      let heads =
        if wormhole then
          let g = State_space.move_graph space ~dest in
          let seen = Hashtbl.create 16 in
          let rec dfs v =
            if not (Hashtbl.mem seen v) then begin
              Hashtbl.replace seen v ();
              Dfr_graph.Csr.iter_succ dfs g v
            end
          in
          dfs q;
          Hashtbl.fold (fun v () l -> v :: l) seen []
        else [ q ]
      in
      List.iter
        (fun h -> if List.mem w (current ~buf:h ~dest) then acc := (h, dest) :: !acc)
        heads
    end
  done;
  !acc

(* Learned blocking clauses: a clause is a sorted array of entry ids, "at
   least one must be removed".  [dead] counts the removed entries per
   clause, maintained on every remove/restore, so "some clause violated"
   (all entries live) is a scan over an int array.  [activity] counts how
   often an entry appears in discovered cycles; branching follows it. *)
module Clauses = struct
  type t = {
    mutable arr : int array array;
    mutable dead : int array;
    mutable n : int;
    occ : int list array; (* entry id -> clauses containing it *)
    activity : int array;
    seen : (int array, unit) Hashtbl.t;
  }

  let create num_entries =
    {
      arr = Array.make 16 [||];
      dead = Array.make 16 0;
      n = 0;
      occ = Array.make (max 1 num_entries) [];
      activity = Array.make (max 1 num_entries) 0;
      seen = Hashtbl.create 64;
    }

  (* returns true when the clause is new *)
  let learn t ~live c =
    Array.iter (fun e -> t.activity.(e) <- t.activity.(e) + 1) c;
    if Hashtbl.mem t.seen c then false
    else begin
      Hashtbl.add t.seen c ();
      if t.n = Array.length t.arr then begin
        t.arr <- Array.append t.arr (Array.make t.n [||]);
        t.dead <- Array.append t.dead (Array.make t.n 0)
      end;
      t.arr.(t.n) <- c;
      t.dead.(t.n) <-
        Array.fold_left (fun acc e -> if live.(e) then acc else acc + 1) 0 c;
      Array.iter (fun e -> t.occ.(e) <- t.n :: t.occ.(e)) c;
      t.n <- t.n + 1;
      true
    end

  let on_remove t e = List.iter (fun i -> t.dead.(i) <- t.dead.(i) + 1) t.occ.(e)
  let on_restore t e = List.iter (fun i -> t.dead.(i) <- t.dead.(i) - 1) t.occ.(e)

  (* the first violated clause, in learning order *)
  let violated t =
    let rec go i =
      if i >= t.n then None else if t.dead.(i) = 0 then Some t.arr.(i) else go (i + 1)
    in
    go 0
end

exception Stop of string

(* The search is a boolean assignment "wait entry live / removed" over
   the entries of every reachable state.  A probe builds the candidate
   BWG and asks for a True Cycle.  Each True Cycle's witness packets name
   the wait entries generating its edges; as long as all of them stay
   live the same cycle recurs (routes are fixed, so the True-Cycle
   property is monotone in the kept entries), so the set becomes a
   blocking clause "remove at least one".  On a conflict the search first
   tries to dissolve one whole cycle edge at a time — remove every live
   entry generating it, the paper's design move and the cheapest way to
   kill a cycle family — and then branches on the single entries of the
   clause, most active first, id ties, which is what makes exhaustion an
   exact Theorem-3 refutation.  A candidate violating a learned clause is
   pruned without rebuilding.  Wait-connectivity is an invariant: the
   last live entry of a state is never removed. *)
let search ?cycle_limits ?class_limits ?(budget = 2000) ?(domains = 1)
    ?(minimize = false) space =
  Obs.span "reduction.search" @@ fun () ->
  let wormhole = Net.switching (State_space.net space) = Net.Wormhole in
  let num_nodes = State_space.num_nodes space in
  (* entry table: the entries of state [si] are ids start.(si) ..
     start.(si + 1) - 1, in waiting-rule order *)
  let index = Hashtbl.create 256 in
  let rev_entries = ref [] and rev_start = ref [] and num_states = ref 0 in
  let num_entries = ref 0 in
  State_space.iter_reachable space (fun ~buf ~dest ->
      match State_space.waits space ~buf ~dest with
      | [] -> ()
      | ws ->
        Hashtbl.replace index ((buf * num_nodes) + dest) !num_states;
        rev_start := !num_entries :: !rev_start;
        incr num_states;
        List.iter
          (fun target ->
            rev_entries := { head = buf; dest; target } :: !rev_entries;
            incr num_entries)
          ws);
  let entries = Array.of_list (List.rev !rev_entries) in
  let n = Array.length entries in
  let start = Array.of_list (List.rev (n :: !rev_start)) in
  let state_of = Array.make n 0 in
  for si = 0 to !num_states - 1 do
    Array.fill state_of start.(si) (start.(si + 1) - start.(si)) si
  done;
  let live = Array.make n true in
  let live_count = Array.init !num_states (fun si -> start.(si + 1) - start.(si)) in
  (* each state's live waiting set, refreshed when one of its entries
     changes, so a BWG build reads it with one int-keyed lookup *)
  let waits =
    Array.init !num_states (fun si ->
        List.init (live_count.(si)) (fun i -> entries.(start.(si) + i).target))
  in
  let refresh si =
    let acc = ref [] in
    for e = start.(si + 1) - 1 downto start.(si) do
      if live.(e) then acc := entries.(e).target :: !acc
    done;
    waits.(si) <- !acc
  in
  let wait_sets ~buf ~dest =
    match Hashtbl.find_opt index ((buf * num_nodes) + dest) with
    | Some si -> waits.(si)
    | None -> []
  in
  let entry_id ~head ~dest ~target =
    match Hashtbl.find_opt index ((head * num_nodes) + dest) with
    | None -> None
    | Some si ->
      let rec find e =
        if e >= start.(si + 1) then None
        else if entries.(e).target = target then Some e
        else find (e + 1)
      in
      find start.(si)
  in
  let clauses = Clauses.create n in
  let remove e =
    live.(e) <- false;
    live_count.(state_of.(e)) <- live_count.(state_of.(e)) - 1;
    refresh state_of.(e);
    Clauses.on_remove clauses e
  in
  let restore e =
    Clauses.on_restore clauses e;
    live.(e) <- true;
    live_count.(state_of.(e)) <- live_count.(state_of.(e)) + 1;
    refresh state_of.(e)
  in
  let removable e = live.(e) && live_count.(state_of.(e)) > 1 in
  let rebuilds = ref 0 and decisions = ref 0 and conflicts = ref 0 in
  let learned = ref 0 and pruned = ref 0 and restored = ref 0 in
  let max_decisions = 256 * budget in
  (* hang guard: clause-pruned subtrees cost no rebuilds, so the rebuild
     budget alone cannot bound them *)
  let decide () =
    if !decisions >= max_decisions then
      raise (Stop (Printf.sprintf "decision limit of %d exhausted" max_decisions));
    incr decisions
  in
  (* the BWG of the last True-Cycle-free probe; after the search and the
     minimization pass it is the BWG of the final table *)
  let last_free = ref None in
  let probe () =
    incr rebuilds;
    let bwg = Bwg.build ~wait_sets ~domains space in
    let status = true_cycle_status ?cycle_limits ?class_limits bwg in
    (match status with Ok None -> last_free := Some bwg | _ -> ());
    status
  in
  let clause_of packets =
    List.map
      (fun (p : Cycle_class.packet) ->
        let head =
          match List.rev p.Cycle_class.path with
          | [] -> raise (Stop "internal: witness packet with an empty path")
          | head :: _ -> head
        in
        match
          entry_id ~head ~dest:p.Cycle_class.dest ~target:p.Cycle_class.waits_for
        with
        | Some e -> e
        | None ->
          raise (Stop "internal: witness wait entry missing from the entry table"))
      packets
    |> List.sort_uniq compare |> Array.of_list
  in
  let by_activity c =
    List.stable_sort
      (fun a b ->
        let act = clauses.Clauses.activity in
        match compare act.(b) act.(a) with
        | 0 -> compare a b
        | c -> c)
      (Array.to_list c)
  in
  (* DFS.  True when a True-Cycle-free table was reached (the table is
     left at it); false when this subtree is exhausted. *)
  let rec solve () =
    match Clauses.violated clauses with
    | Some clause ->
      incr pruned;
      branch clause
    | None -> (
      if !rebuilds >= budget then
        raise
          (Stop (Printf.sprintf "search budget of %d BWG rebuilds exhausted" budget));
      match probe () with
      | Error reason -> raise (Stop reason)
      | Ok None -> true
      | Ok (Some (cycle, packets)) ->
        incr conflicts;
        let clause = clause_of packets in
        if Clauses.learn clauses ~live clause then incr learned;
        let first = List.hd cycle in
        let rec edges = function
          | [ last ] -> [ (last, first) ]
          | a :: (b :: _ as rest) -> (a, b) :: edges rest
          | [] -> []
        in
        List.exists dissolve (edges cycle) || branch clause)
  (* remove every live entry generating edge q -> w, if each touched state
     keeps a wait *)
  and dissolve (q, w) =
    let ids =
      List.map
        (fun (head, dest) -> entry_id ~head ~dest ~target:w)
        (generating_entries space wait_sets ~wormhole q w)
    in
    ids <> []
    && List.for_all (function Some e -> removable e | None -> false) ids
    &&
    let ids = List.map Option.get ids in
    decide ();
    List.iter remove ids;
    solve ()
    || begin
         List.iter restore ids;
         false
       end
  and branch clause =
    List.exists
      (fun e ->
        removable e
        && begin
             decide ();
             remove e;
             solve ()
             || begin
                  restore e;
                  false
                end
           end)
      (by_activity clause)
  in
  (* Greedy 1-minimization: restore each removal in ascending entry order
     and keep the restoration whenever the candidate stays True-Cycle-free.
     By monotonicity one ascending pass leaves a 1-minimal removed set —
     re-admitting any single survivor brings a True Cycle back. *)
  let minimize_pass () =
    Obs.span "reduction.minimize" @@ fun () ->
    for e = 0 to n - 1 do
      if not live.(e) then begin
        restore e;
        match probe () with
        | Ok None -> incr restored
        | Ok (Some _) | Error _ -> remove e
      end
    done
  in
  let outcome =
    match solve () with
    | exception Stop msg -> Gave_up msg
    | false -> Impossible
    | true ->
      if minimize then minimize_pass ();
      let removed = ref [] in
      for e = n - 1 downto 0 do
        if not live.(e) then removed := entries.(e) :: !removed
      done;
      Reduced (Option.get !last_free, List.sort compare !removed)
  in
  let stats =
    {
      rebuilds = !rebuilds;
      decisions = !decisions;
      conflicts = !conflicts;
      learned = !learned;
      pruned = !pruned;
      restored = !restored;
    }
  in
  Obs.count "reduction.rebuilds" stats.rebuilds;
  Obs.count "reduction.decisions" stats.decisions;
  Obs.count "reduction.conflicts" stats.conflicts;
  Obs.count "reduction.clauses.learned" stats.learned;
  Obs.count "reduction.pruned" stats.pruned;
  Obs.count "reduction.restored" stats.restored;
  (outcome, stats)
