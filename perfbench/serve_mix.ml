(* serve-mix: a closed-loop NDJSON request log replayed into
   [Dfr_serve.Engine], the many-small-requests regime.

   Spec parsing, digests, the verdict cache, protocol handling and the
   checker's decide paths (knot, cycle scan, True-Cycle classification,
   the Theorem-3 search) carry the cost here; closures are cheap.  It is
   the only workload with the Dfr_obs collector on, as [dfcheck serve
   --metrics] runs.  The seeded log mixes four kinds of request:

   - random designs from [Dfr_fuzz.Gen] (at most 12 nodes), sent as
     inline .dfr specs;
   - named catalogue checks, on each family's default topology and on one
     larger topology the family accepts (see NOTES.md for the hop-class
     exclusion);
   - the multi-wait designs (two-buffer, two-buffer-vct on 3x3-6x6
     meshes) printed as inline specs.  Printing drops the declarative
     BWG' hint, so the checker has to find BWG' by search (Theorem 4);
   - repeats of earlier requests, which the verdict cache answers.

   The shares are designed, not taken from recorded traffic; NOTES.md
   gives the part of the pass time each is meant to carry and why.  Each
   pass replays the whole log against a fresh engine, so every pass
   has the same uncached/cached composition whatever the speed.  The
   engine has one worker and the loop keeps one request outstanding, so
   the process's CPU time between a request's submission and its answer
   is that request's alone. *)

open Dfr_util
open Dfr_routing
open Common
module Obs = Dfr_obs.Obs
module Engine = Dfr_serve.Engine

let workers = 1
let domains = 1
let fuzz_designs = 500
let max_nodes = 12
let sends = 3

type kind = Fuzz | Named of Registry.entry | Multi of Registry.entry

type item = {
  kind : kind;
  label : string;
  spec : string option;  (** inline .dfr source; [None] for named checks *)
  topology : string option;
  key : int;
      (** the item's problem, numbered by content digest: two items with
          one digest share a cache entry, as the engine addresses them *)
}

(* A larger topology each family accepts.  hop-class needs more buffer
   classes than the mesh diameter: on mesh:5x5 a named check raises out
   of the engine (NOTES.md, known defect), so it gets a 3-D mesh. *)
let larger (e : Registry.entry) =
  match e.Registry.family with
  | _ when e.Registry.name = "hop-class" -> Some "mesh:2x3x3"
  | Registry.Hypercube_family -> Some "hypercube:4"
  | Registry.Mesh_family _ | Registry.Mesh_saf_family _ | Registry.Vct_family _ ->
    Some "mesh:5x5"
  | Registry.Torus_family _ -> Some "torus:5x5"
  | Registry.Fullmesh_family -> Some "fullmesh:8"
  | Registry.Dragonfly_family -> Some "dragonfly:3x2"
  | Registry.Fattree_family -> Some "kntree:2x3"
  | Registry.Custom_family -> None

let multi_meshes =
  [ [| 3; 3 |]; [| 3; 4 |]; [| 4; 4 |]; [| 4; 5 |]; [| 5; 5 |]; [| 5; 6 |]; [| 6; 6 |] ]

let print_spec net algo =
  match Dfr_spec.Printer.to_string net algo with
  | Ok text -> text
  | Error msg -> failwith msg

let corpus seed =
  let rng = Prng.create seed in
  let fuzz =
    List.init fuzz_designs (fun i ->
        let case = Dfr_fuzz.Gen.case (Prng.split rng) ~max_nodes in
        let net, algo = Dfr_fuzz.Case.to_net_algo case in
        {
          kind = Fuzz;
          label = Printf.sprintf "fuzz %d %s" i case.Dfr_fuzz.Case.name;
          spec = Some (print_spec net algo);
          topology = None;
          key = 0;
        })
  in
  let named =
    List.concat_map
      (fun (e : Registry.entry) ->
        List.map
          (fun topology ->
            {
              kind = Named e;
              label = e.Registry.name ^ "@" ^ Option.value ~default:"default" topology;
              spec = None;
              topology;
              key = 0;
            })
          (None :: Option.to_list (Option.map Option.some (larger e))))
      Registry.all
  in
  let multi =
    List.concat_map
      (fun name ->
        let e = Option.get (Registry.find name) in
        List.map
          (fun dims ->
            let topo = Dfr_topology.Topology.mesh dims in
            let net = Registry.network_for e (Some topo) in
            {
              kind = Multi e;
              label = Printf.sprintf "%s printed on mesh:%dx%d" name dims.(0) dims.(1);
              spec = Some (print_spec net e.Registry.algo);
              topology = None;
              key = 0;
            })
          multi_meshes)
      [ "two-buffer"; "two-buffer-vct" ]
  in
  let digests = Hashtbl.create 512 in
  Array.of_list
    (List.map
       (fun item ->
         let net, algo =
           match (item.spec, item.kind) with
           | Some text, _ ->
             let c = Result.get_ok (Dfr_spec.Spec.compile_string text) in
             (c.Dfr_spec.Spec.net, c.Dfr_spec.Spec.algo)
           | None, Named e ->
             ( Registry.network_for e
                 (Option.map
                    (fun t -> Result.get_ok (Dfr_topology.Topology.of_string t))
                    item.topology),
               e.Registry.algo )
           | None, _ -> assert false
         in
         let d = Result.get_ok (Dfr_spec.Printer.digest net algo) in
         let key =
           match Hashtbl.find_opt digests d with
           | Some k -> k
           | None ->
             let k = Hashtbl.length digests in
             Hashtbl.add digests d k;
             k
         in
         { item with key })
       (fuzz @ named @ multi))

(* The request log: item indices in a seeded order, every item sent
   [sends] times.  The first request for a problem is checked, the others
   are answered by the cache.  A fixed count per item keeps the passes of
   every seed alike: with repeats drawn at random, the few heavy
   multi-wait specs drew from none to many cache hits, each paying a
   parse and digest, and the pass time moved with the seed. *)
let log seed items =
  let n = Array.length items in
  let order = Array.init (sends * n) (fun i -> i mod n) in
  Prng.shuffle (Prng.create (seed + 1)) order;
  order

(* Whether each request of the log is the first for its problem, i.e. the
   one a fresh engine cannot answer from its cache. *)
let firsts items log =
  let seen = Array.make (Array.length items) false in
  Array.map
    (fun item ->
      let key = items.(item).key in
      let first = not seen.(key) in
      seen.(key) <- true;
      first)
    log

let request_line id item =
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Int id); ("op", Json.String "check") ]
       @
       match (item.spec, item.kind) with
       | Some text, _ -> [ ("spec", Json.String text) ]
       | None, Named e ->
         ("algo", Json.String e.Registry.name)
         :: Option.to_list
              (Option.map (fun t -> ("topology", Json.String t)) item.topology)
       | None, _ -> assert false))

let config =
  {
    Engine.default_config with
    Engine.workers;
    cache_capacity = 4096;
    domains;
  }

(* The layer calls the engine makes for one request, made again by the
   benchmark under shadow spans (the engine's internals carry no probe
   the benchmark may use).  Inline specs are compiled and digested on
   every request; named digests are memoized per engine; a first
   occurrence is also checked and rendered. *)
let shadow item ~first ~named_seen =
  let net, algo =
    match item.spec with
    | Some text -> (
      match
        Trace.span ~shadow:true "spec.compile" (fun () ->
            Dfr_spec.Spec.compile_string text)
      with
      | Ok c ->
        ignore
          (Trace.span ~shadow:true "spec.digest" (fun () ->
               Dfr_spec.Printer.digest c.Dfr_spec.Spec.net c.Dfr_spec.Spec.algo));
        (c.Dfr_spec.Spec.net, c.Dfr_spec.Spec.algo)
      | Error e -> failwith (Dfr_spec.Spec.error_to_string e))
    | None ->
      let e = match item.kind with Named e -> e | _ -> assert false in
      let net =
        Trace.span ~shadow:true "trace.prepare" (fun () ->
            Registry.network_for e
              (Option.map
                 (fun t -> Result.get_ok (Dfr_topology.Topology.of_string t))
                 item.topology))
      in
      if not (Hashtbl.mem named_seen item.label) then begin
        Hashtbl.add named_seen item.label ();
        ignore
          (Trace.span ~shadow:true "spec.digest" (fun () ->
               Dfr_spec.Printer.digest net e.Registry.algo))
      end;
      (net, e.Registry.algo)
  in
  if first then ignore (Pipeline.check ~shadow:true ~domains net algo);
  (* collect the shadow calls' garbage now, so the engine's own allocations
     do not pay for it *)
  Trace.span ~shadow:true "trace.gc" Gc.minor

type pass = {
  latency : float array;
  responses : Json.t array;
  seconds : float;  (** time of the pass, shadow time excluded *)
  wall_s : float;  (** its wall time, shadow time included *)
  hits : int;
  lookups : int;
}

(* A pass starts the server afresh: a new engine and, as [dfcheck serve
   --metrics] starts with, a new Dfr_obs collector, whose event list would
   otherwise grow with every pass. *)
let pass items log ~first lines =
  Obs.enable ();
  let engine = Engine.create config in
  let n = Array.length log in
  let latency = Array.make n 0. and responses = Array.make n Json.Null in
  let named_seen = Hashtbl.create 64 in
  let q = Queue.create () in
  let submit i =
    Trace.set_request i;
    Trace.span "op" (fun () ->
        if Trace.enabled () then shadow items.(log.(i)) ~first:first.(i) ~named_seen;
        let t0 = now () in
        let slot =
          Trace.span "serve.handle_line" (fun () ->
              Engine.handle_line engine lines.(i))
        in
        Queue.push (i, slot, t0) q)
  in
  let sh0 = Trace.shadow_time () in
  let t0 = now () and w0 = wall () in
  let next = ref 0 in
  while !next < n || not (Queue.is_empty q) do
    while !next < n && Queue.length q < workers do
      submit !next;
      incr next
    done;
    let i, slot, ti = Queue.pop q in
    Trace.set_request i;
    let resp =
      Trace.span "op" (fun () ->
          Trace.span "serve.await" (fun () -> Engine.await engine slot))
    in
    latency.(i) <- now () -. ti;
    responses.(i) <- resp
  done;
  let seconds = now () -. t0 -. (Trace.shadow_time () -. sh0) in
  let wall_s = wall () -. w0 in
  let cache = Option.get (Json.member "cache" (Engine.stats_json engine)) in
  let stat k = Option.get (Option.bind (Json.member k cache) Json.to_int) in
  Engine.shutdown engine;
  Obs.disable ();
  {
    latency;
    responses;
    seconds;
    wall_s;
    hits = stat "hits";
    lookups = stat "hits" + stat "misses";
  }

let field k j = Json.member k j

(* Verdict class of a report, for the composition counts. *)
let verdict_class report =
  let v = Option.get (field "verdict" report) in
  let str k = Option.bind (field k v) Json.to_str in
  match (str "result", Option.bind (field "theorem" v) Json.to_int, str "kind") with
  | Some "deadlock-free", Some 1, _ -> "thm1"
  | Some "deadlock-free", Some 2, _ -> "thm2"
  | Some "deadlock-free", Some 3, _ -> (
    match field "via_hint" v with
    | Some (Json.Bool true) -> "thm3_hint"
    | _ -> "thm3_search")
  | Some "deadlock", _, Some "knot" -> "knot"
  | Some "deadlock", _, Some "true-cycle" -> "true_cycle"
  | Some "deadlock", _, Some "no-reduction" -> "no_reduction"
  | _ -> "other"

let run ~seed ~seconds ~traced =
  let (items, log, lines), setup_s =
    setup (fun () ->
        let items = corpus seed in
        let log = log seed items in
        let lines = Array.mapi (fun i item -> request_line i items.(item)) log in
        Engine.shutdown (Engine.create config);
        (items, log, lines))
  in
  let first = firsts items log in
  let uncached_per_pass = Array.fold_left (fun a f -> if f then a + 1 else a) 0 first in
  let named =
    Array.fold_left (fun a i -> match i.kind with Named _ -> a + 1 | _ -> a) 0 items
  in
  Printf.printf
    "log: %d requests per pass, %d uncached: %d items (%d fuzz, %d named, %d printed \
     multi-wait) that print to %d distinct problems; workers %d, domains %d\n"
    (Array.length log) uncached_per_pass (Array.length items) fuzz_designs named
    (Array.length items - fuzz_designs - named)
    uncached_per_pass workers domains;
  (* per problem: the bytes of its first, uncached answer in the first pass *)
  let reference = Array.make (Array.length items) None in
  let deadlocked = Hashtbl.create 64 in
  let verify k p =
    let answer = Array.make (Array.length items) "" in
    Array.iteri
      (fun i resp ->
        let item = items.(log.(i)) in
        let op = Printf.sprintf "pass %d request %d (%s)" k i item.label in
        attempt 1;
        match
          (field "ok" resp, field "cached" resp, field "exit" resp, field "report" resp)
        with
        | ( Some (Json.Bool true),
            Some (Json.Bool cached),
            Some (Json.Int exit),
            Some report ) -> (
          let text = Json.to_string report in
          let key = item.key in
          if first.(i) then begin
            if cached then miss ~op "first request answered from the cache";
            answer.(key) <- text;
            match reference.(key) with
            | None -> reference.(key) <- Some (text, report)
            | Some (t, _) ->
              if t <> text then miss ~op "report differs from the first pass's"
          end
          else begin
            if not cached then miss ~op "repeat not answered from the cache";
            if answer.(key) <> text then
              miss ~op "cached report differs from the uncached one"
          end;
          match item.kind with
          | Named e | Multi e ->
            (* exit 3 (Unknown) is no verdict, so it misses wherever the
               catalogue expects one *)
            let verdict = match exit with 0 -> Some true | 1 -> Some false | _ -> None in
            if verdict <> e.Registry.expected_deadlock_free then
              miss ~op "exit %d against the catalogue's expected verdict" exit
          | Fuzz -> if exit = 1 then Hashtbl.replace deadlocked key log.(i))
        | _ -> miss ~op "error response %s" (Json.to_string resp))
      p.responses
  in
  (* a verified pass keeps no responses: bookkeeping must not grow the
     peak RSS the run measures *)
  let run_passes () =
    repeat ~seconds (fun k ->
        let p = pass items log ~first lines in
        verify k p;
        { p with responses = [||] })
  in
  let g0 = gc_now () in
  let reference_pass = if traced then Some (pass items log ~first lines) else None in
  let gc = gc_since g0 in
  Option.iter (verify 0) reference_pass;
  let passes, rss =
    if traced then begin
      Trace.start ();
      let passes = run_passes () in
      (passes, nan)
    end
    else begin
      start_timed ();
      let passes = run_passes () in
      (passes, peak_rss_mb ())
    end
  in
  (* each deadlocking design's witness, replayed in the simulator once *)
  Trace.without (fun () ->
      Hashtbl.iter
        (fun _ idx ->
          let item = items.(idx) in
          attempt 1;
          match Dfr_spec.Spec.compile_string (Option.get item.spec) with
          | Error _ -> miss ~op:item.label "spec no longer compiles"
          | Ok c -> (
            let o = Dfr_fuzz.Oracle.confront c.Dfr_spec.Spec.net c.Dfr_spec.Spec.algo in
            match o.Dfr_fuzz.Oracle.replay with
            | Dfr_fuzz.Oracle.Confirmed -> ()
            | Dfr_fuzz.Oracle.Refuted ->
              miss ~op:item.label "deadlock witness drained in the simulator"
            | Dfr_fuzz.Oracle.Not_replayable | Dfr_fuzz.Oracle.No_witness ->
              miss ~op:item.label "deadlock verdict has no replayable witness"))
        deadlocked);
  let uncached = ref [] and cached = ref [] in
  List.iter
    (fun p ->
      Array.iteri
        (fun i lat ->
          if first.(i) then uncached := lat :: !uncached else cached := lat :: !cached)
        p.latency)
    passes;
  let requests = List.length passes * Array.length log in
  let total = List.fold_left (fun a p -> a +. p.seconds) 0. passes in
  let check_p50 = 1000. *. median !uncached in
  Printf.printf "deadlocking fuzz designs replayed: %d\n" (Hashtbl.length deadlocked);
  if not traced then begin
    let tail_p, tail_v = Option.value ~default:(nan, nan) (tail !uncached) in
    (* how the pass time splits between the parts of the mix: the share
       each part is meant to carry is stated in NOTES.md *)
    let part i =
      if not first.(i) then 3
      else match items.(log.(i)).kind with Fuzz -> 0 | Named _ -> 1 | Multi _ -> 2
    in
    let part_s = Array.make 4 0. and part_n = Array.make 4 0 in
    List.iter
      (fun p ->
        Array.iteri
          (fun i lat ->
            part_s.(part i) <- part_s.(part i) +. lat;
            part_n.(part i) <- part_n.(part i) + 1)
          p.latency)
      passes;
    let all_s = Array.fold_left ( +. ) 0. part_s in
    Printf.printf "pass time by part of the mix:";
    List.iteri
      (fun k name ->
        Printf.printf " %s %.0f%% (%d requests)" name
          (100. *. part_s.(k) /. all_s)
          (part_n.(k) / List.length passes))
      [ "fuzz"; "named"; "multi-wait"; "cache hits" ];
    print_newline ();
    print_samples "pass" (List.map (fun p -> (p.seconds, p.wall_s)) passes);
    print_metrics
      (Printf.sprintf
         "workload metrics (%d passes, %d requests; %d uncached, %d cached \
          samples):"
         (List.length passes) requests (List.length !uncached) (List.length !cached))
      [
        m "req_per_s" "1/s" (float_of_int requests /. total);
        m "check_p50_ms" "ms" check_p50;
        m (Printf.sprintf "check_p%g_ms" tail_p) "ms" (1000. *. tail_v);
        m "hit_p50_ms" "ms" (1000. *. median !cached);
        m "failed_ratio" "ratio" (failed_ratio ());
      ];
    (* medians over the run's passes, so a slow stretch of the host spoils
       one pass, not the run.  verdict_cpu_ms is the mean uncached latency of a
       pass, so each part of the mix weighs in with the time it takes: the
       few multi-wait requests and their BWG' search as much as the many
       small fuzz designs *)
    let pass_mean p =
      let s = ref 0. and n = ref 0 in
      Array.iteri
        (fun i lat ->
          if first.(i) then begin
            s := !s +. lat;
            incr n
          end)
        p.latency;
      !s /. float_of_int !n
    in
    [
      m "setup_s" "s" setup_s;
      m "verdicts_per_cpu_s" "1/s"
        (median
           (List.map (fun p -> float_of_int (Array.length log) /. p.seconds) passes));
      m "verdict_cpu_ms" "ms" (1000. *. median (List.map pass_mean passes));
      m "peak_rss_mb" "MB" rss;
    ]
  end
  else begin
    let n = List.length passes in
    let per x = x /. float_of_int n in
    let layer_sum =
      List.fold_left
        (fun acc (name, (_, total, _)) ->
          if
            List.mem name
              [ "spec.compile"; "spec.digest"; "core.space_build"; "core.bwg_build";
                "core.scan"; "core.decide"; "core.render" ]
          then acc +. total
          else acc)
        0. (Trace.layers ())
    in
    let engine =
      List.fold_left
        (fun acc (name, (_, total, _)) ->
          if name = "serve.handle_line" || name = "serve.await" then acc +. total
          else acc)
        0. (Trace.layers ())
    in
    let composition = Hashtbl.create 8 in
    Array.iter
      (function
        | Some (_, report) ->
          let c = "core.verdicts." ^ verdict_class report in
          Hashtbl.replace composition c
            (1. +. Option.value ~default:0. (Hashtbl.find_opt composition c))
        | None -> ())
      reference;
    let hits = List.fold_left (fun a p -> a + p.hits) 0 passes in
    let lookups = List.fold_left (fun a p -> a + p.lookups) 0 passes in
    Layers.print_spans ();
    Layers.metrics ~units:n
      ~unit_s:(median (List.map (fun p -> p.seconds) passes))
      ~reference_s:(Option.get reference_pass).seconds ~gc
      ~extra:
        ([
           ("serve.engine_other_s", per (engine -. layer_sum));
           ("serve.cache_hit_ratio", float_of_int hits /. float_of_int lookups);
           ("serve.cache_lookups", per (float_of_int lookups));
         ]
        @ List.map
            (fun c ->
              let k = "core.verdicts." ^ c in
              (k, Option.value ~default:0. (Hashtbl.find_opt composition k)))
            [
              "thm1"; "thm2"; "thm3_hint"; "thm3_search"; "knot"; "true_cycle";
              "no_reduction"; "other";
            ])
  end
