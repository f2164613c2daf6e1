open Dfr_network
open Dfr_graph
module Obs = Dfr_obs.Obs

type wait_sets = buf:int -> dest:int -> int list
type witness = { dest : int; head : int }

(* Witness lists are capped; the insertion count rides along so the cap
   check is O(1) instead of an O(cap) List.length per recorded edge. *)
type wcell = { mutable count : int; mutable ws : witness list }

type t = {
  space : State_space.t;
  graph : Digraph.t;
  witnesses : (int * wcell) list array;
      (* per-q1 association rows (q2, cell); BWG out-degrees are small, so
         a pointer walk beats hashing on the build's hot path *)
  wait_sets : wait_sets;
  witness_cap : int;
}

let space t = t.space
let graph t = t.graph
let wait_sets t = t.wait_sets

(* Successors of [q1] as a strictly ascending array, read straight off the
   witness rows.  This is the implicit edge relation the acyclicity and
   cycle queries run on — the BWG is never frozen into a second full CSR
   copy of its adjacency, which matters once the graph has 10^5 vertices. *)
let succ_row t q1 =
  let r = Array.of_list (List.map fst t.witnesses.(q1)) in
  Array.sort (fun (a : int) b -> compare a b) r;
  r

let rec find_cell q2 = function
  | [] -> None
  | (k, cell) :: tl -> if k = q2 then Some cell else find_cell q2 tl

let witnesses t q1 q2 =
  if q1 < 0 || q1 >= Array.length t.witnesses then []
  else
    match find_cell q2 t.witnesses.(q1) with
    | Some cell -> List.rev cell.ws
    | None -> []

(* Waiting edges contributed by one destination's traffic: pure with
   respect to everything except the pre-built move graph, so destinations
   can be processed by separate domains.

   For wormhole switching the blocked header of a packet occupying [q1]
   can sit in any buffer reachable from [q1] in the per-destination move
   graph.  Buffers in the same SCC share that reachability closure, and
   the SCC indices are a reverse topological numbering of the condensation
   (every cross edge points to a lower index), so one pass over components
   in ascending index order computes every closure: seed the component's
   own members, then union in the already-complete closures of its
   successor components — a word-parallel bitset [lor] each.  This
   replaces the previous per-(buffer, dest) DFS, which cost
   O(B · (V + E)) per destination.

   [emit q1 w wit] receives each waiting edge in a deterministic order
   (buffers in [reachable_with] order, heads ascending, waits in rule
   order); the serial build passes its edge recorder directly, the domain
   fan-out accumulates per-destination lists and replays them in
   destination order so both paths see the same sequence. *)
let edges_for_dest space ~wait_sets ~wormhole dest ~emit =
  if not wormhole then
    List.iter
      (fun q1 ->
        let wit = { dest; head = q1 } in
        List.iter (fun w -> emit q1 w wit) (wait_sets ~buf:q1 ~dest))
      (State_space.reachable_with space ~dest)
  else begin
    let g = State_space.move_graph_view space ~dest in
    let n = Csr.num_vertices g in
    let reach = State_space.reachable_with space ~dest in
    (* The closure pass needs components numbered in reverse topological
       order, with member lists: verts.(start.(c) .. start.(c + 1) - 1).
       Move graphs of deadlock-free algorithms are acyclic, so try a Kahn
       pass first — every vertex its own component, numbered n-1-(topo
       position) — and fall back to Tarjan only when a cycle remains. *)
    let count, comp, start, verts =
      let indeg = Array.make n 0 in
      Csr.iter_edges (fun _ w -> indeg.(w) <- indeg.(w) + 1) g;
      let order = Array.make n 0 in
      let filled = ref 0 in
      for v = 0 to n - 1 do
        if indeg.(v) = 0 then begin
          order.(!filled) <- v;
          incr filled
        end
      done;
      let head = ref 0 in
      while !head < !filled do
        let v = order.(!head) in
        incr head;
        Csr.iter_succ
          (fun w ->
            indeg.(w) <- indeg.(w) - 1;
            if indeg.(w) = 0 then begin
              order.(!filled) <- w;
              incr filled
            end)
          g v
      done;
      if !filled = n then begin
        let comp = Array.make n 0 in
        let verts = Array.make n 0 in
        for i = 0 to n - 1 do
          let c = n - 1 - i in
          comp.(order.(i)) <- c;
          verts.(c) <- order.(i)
        done;
        (n, comp, Array.init (n + 1) Fun.id, verts)
      end
      else begin
        let scc = Scc.compute_csr g in
        let count = scc.Scc.count in
        let comp = scc.Scc.component in
        (* group vertices by component (counting sort) *)
        let start = Array.make (count + 1) 0 in
        for v = 0 to n - 1 do
          start.(comp.(v) + 1) <- start.(comp.(v) + 1) + 1
        done;
        for c = 0 to count - 1 do
          start.(c + 1) <- start.(c + 1) + start.(c)
        done;
        let verts = Array.make n 0 in
        let next = Array.copy start in
        for v = 0 to n - 1 do
          verts.(next.(comp.(v))) <- v;
          next.(comp.(v)) <- next.(comp.(v)) + 1
        done;
        (count, comp, start, verts)
      end
    in
    let closures =
      Dfr_util.Bitset.Hybrid.Rows.create ~rows:count ~len:n ()
    in
    (* merged.(c') = c marks that c' is already unioned into c's row, so a
       component with many edges into the same successor pays one sweep *)
    let merged = Array.make count (-1) in
    for c = 0 to count - 1 do
      for i = start.(c) to start.(c + 1) - 1 do
        let v = verts.(i) in
        Dfr_util.Bitset.Hybrid.Rows.add closures c v;
        Csr.iter_succ
          (fun w ->
            let cw = comp.(w) in
            if cw <> c && merged.(cw) <> c then begin
              merged.(cw) <- c;
              Dfr_util.Bitset.Hybrid.Rows.union_rows closures ~into:c ~src:cw
            end)
          g v
      done
    done;
    Obs.count "bwg.closure.words"
      (Dfr_util.Bitset.Hybrid.Rows.storage_words closures);
    Obs.count "bwg.closure.dense-rows"
      (Dfr_util.Bitset.Hybrid.Rows.dense_rows closures);
    (* Only heads with a non-empty waiting set generate edges: resolve each
       head's waiting set and (shared) witness record once per destination
       into an array, so collecting a component's heads is one pass over
       its closure bits with an O(1) lookup per element — no per-component
       list filtering. *)
    let head_info = Array.make n None in
    List.iter
      (fun head ->
        match wait_sets ~buf:head ~dest with
        | [] -> ()
        | ws -> head_info.(head) <- Some ({ dest; head }, ws))
      reach;
    (* waiting heads in a component's closure (ascending), memoized *)
    let heads_of = Array.make count None in
    let heads c =
      match heads_of.(c) with
      | Some hs -> hs
      | None ->
        let acc = ref [] in
        Dfr_util.Bitset.Hybrid.Rows.iter_row
          (fun v ->
            match head_info.(v) with
            | Some info -> acc := info :: !acc
            | None -> ())
          closures c;
        let hs = List.rev !acc in
        heads_of.(c) <- Some hs;
        hs
    in
    List.iter
      (fun q1 ->
        List.iter
          (fun (wit, ws) -> List.iter (fun w -> emit q1 w wit) ws)
          (heads comp.(q1)))
      reach
  end

let default_wait_sets space =
 fun ~buf ~dest -> State_space.waits space ~buf ~dest

(* Shared edge recorder: the witness cell doubles as the duplicate-edge
   check, so only the first witness of an edge touches the adjacency
   structure.  Both the cold build and [replay] feed emissions through
   this same code, which is what makes a replayed BWG structurally
   identical to a built one. *)
let make_recorder ~witness_cap ~graph ~witnesses ~num_edges =
  let add_edge q1 q2 w =
    match find_cell q2 witnesses.(q1) with
    | Some cell ->
      if cell.count < witness_cap then begin
        cell.ws <- w :: cell.ws;
        cell.count <- cell.count + 1
      end
      else Obs.count "bwg.witnesses.capped" 1
    | None ->
      witnesses.(q1) <- (q2, { count = 1; ws = [ w ] }) :: witnesses.(q1);
      incr num_edges;
      Digraph.unsafe_add_edge graph q1 q2
  in
  add_edge

let dest_edges ?wait_sets space ~dest ~emit =
  let wait_sets =
    match wait_sets with Some w -> w | None -> default_wait_sets space
  in
  let wormhole = Net.switching (State_space.net space) = Net.Wormhole in
  edges_for_dest space ~wait_sets ~wormhole dest ~emit

let replay ?wait_sets ?(witness_cap = 32) space f =
  let wait_sets =
    match wait_sets with Some w -> w | None -> default_wait_sets space
  in
  let num_bufs = State_space.num_buffers space in
  let graph = Digraph.create num_bufs in
  let witnesses = Array.make num_bufs [] in
  let num_edges = ref 0 in
  f (make_recorder ~witness_cap ~graph ~witnesses ~num_edges);
  { space; graph; witnesses; wait_sets; witness_cap }

let build ?wait_sets ?(witness_cap = 32) ?(indirect = true) ?(domains = 1)
    space =
  Obs.span "bwg.build" @@ fun () ->
  let wait_sets =
    match wait_sets with
    | Some w -> w
    | None -> default_wait_sets space
  in
  let net = State_space.net space in
  let num_nodes = State_space.num_nodes space in
  let num_bufs = State_space.num_buffers space in
  let graph = Digraph.create num_bufs in
  let witnesses = Array.make num_bufs [] in
  let num_edges = ref 0 in
  let add_edge = make_recorder ~witness_cap ~graph ~witnesses ~num_edges in
  let wormhole = indirect && Net.switching net = Net.Wormhole in
  (* the closure pass reads each destination's move graph exactly once,
     through [move_graph_view]: a transient build per destination instead
     of pinning the whole N-entry cache for the rest of the run.  Workers
     only ever *read* the cache (entries are written by serial phases), so
     the fan-out stays safe without materializing first. *)
  if domains <= 1 || num_nodes <= 1 then
    (* serial: stream edges straight into the recorder, no staging lists *)
    for d = 0 to num_nodes - 1 do
      Obs.span "bwg.closure" (fun () ->
          edges_for_dest space ~wait_sets ~wormhole d
            ~emit:add_edge)
    done
  else begin
    (* Work items are single destinations claimed off an atomic ticket,
       not static chunks: a destination's move-graph materialization
       ([move_graph_view] inside [edges_for_dest]) is the producer half
       and its SCC/closure/emission pass the consumer half, so with
       dynamic claiming one domain is materializing destination d+1's
       move graph while another is still folding destination d's
       closures — the two halves overlap instead of serializing, and an
       expensive destination never leaves a whole chunk idle behind it.
       Determinism is unaffected: emissions are staged per destination
       and merged in ascending order below, and every Obs counter on
       this path is a per-destination sum. *)
    let n_dom = min domains num_nodes in
    let results = Array.make num_nodes [] in
    let next = Atomic.make 0 in
    Dfr_util.Domain_pool.parallel ~domains:n_dom (fun _ ->
        Obs.span "bwg.build.worker" @@ fun () ->
        let continue = ref true in
        while !continue do
          let d = Atomic.fetch_and_add next 1 in
          if d >= num_nodes then continue := false
          else
            Obs.span "bwg.closure" (fun () ->
                let acc = ref [] in
                edges_for_dest space ~wait_sets ~wormhole d
                  ~emit:(fun q w wit -> acc := (q, w, wit) :: !acc);
                results.(d) <- !acc)
        done);
    (* merge sequentially: destinations ascending, witnesses in emit order,
       so the result is identical to the serial construction *)
    Array.iter
      (fun es -> List.iter (fun (q, w, wit) -> add_edge q w wit) (List.rev es))
      results
  end;
  Obs.gauge "bwg.vertices" (float_of_int num_bufs);
  Obs.gauge "bwg.edges" (float_of_int !num_edges);
  { space; graph; witnesses; wait_sets; witness_cap }

(* Kahn's pass over the witness rows directly: no frozen CSR, no sorting —
   acyclicity does not depend on visit order. *)
let is_acyclic t =
  let n = Array.length t.witnesses in
  let indeg = Array.make n 0 in
  Array.iter
    (fun row -> List.iter (fun (q2, _) -> indeg.(q2) <- indeg.(q2) + 1) row)
    t.witnesses;
  let stack = ref [] in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then stack := v :: !stack
  done;
  let seen = ref 0 in
  let continue = ref true in
  while !continue do
    match !stack with
    | [] -> continue := false
    | v :: tl ->
      stack := tl;
      incr seen;
      List.iter
        (fun (w, _) ->
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then stack := w :: !stack)
        t.witnesses.(v)
  done;
  !seen = n

(* Only the Theorem-1 certificate needs a materialized order; freeze a
   transient CSR so the output is byte-identical to the historical frozen
   path, and let it be collected immediately after. *)
let topological_order t = Traversal.topological_sort_csr (Digraph.freeze t.graph)

let cycles ?limits t =
  Cycles.enumerate_checked_rows ?limits ~n:(Array.length t.witnesses)
    ~row:(succ_row t) ()

let unconnected_states ?domains t =
  State_space.filter_reachable ?domains t.space (fun ~buf ~dest ->
      (not (State_space.arrived t.space ~buf ~dest))
      && t.wait_sets ~buf ~dest = [])

let is_wait_connected t = unconnected_states t = []

let to_dot t =
  let net = State_space.net t.space in
  Dot.to_string ~name:"bwg"
    ~vertex_label:(fun v -> Net.describe_buffer net v)
    t.graph
