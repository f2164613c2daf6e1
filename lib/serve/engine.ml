open Dfr_util
open Dfr_core
module Problem = Dfr_spec.Problem
module Obs = Dfr_obs.Obs

type config = {
  workers : int;
  capacity : int;
  cache_capacity : int;
  cache_entry_bytes : int;
  timeout_ms : int;
  domains : int;
  sessions : int;
}

let default_config =
  {
    workers = 1;
    capacity = 64;
    cache_capacity = 256;
    cache_entry_bytes = 1 lsl 20;
    timeout_ms = 0;
    domains = 0;
    sessions = 8;
  }

(* What the cache stores per digest: the report object exactly as first
   rendered, plus its exit code.  A hit replays these bytes; only the
   envelope (id, cached flag) differs between the original miss and the
   hits. *)
type entry = { report : Json.t; exit_code : int }

(* An incremental session, addressed by the digest of the spec it
   currently answers for.  The record is mutable and the LRU has no
   remove, so after an update moves the session to the edit's digest the
   old binding still aliases it — [current] detects and ignores such
   stale bindings. *)
type session = {
  mutable incr : Incr.t;
  mutable validated : Dfr_spec.Validate.t;
  mutable current : string;
}

type outcome = Checked of entry | Slept of int

type pending = {
  digest : string option; (* Some for checks, None for sleeps *)
  promise : (outcome, string) result Pool.promise;
  deadline : float option;
  cached : bool; (* answered by an earlier in-flight request's work *)
}

type slot_state = Ready of Json.t | Waiting of pending
type slot = { id : Json.t option; mutable state : slot_state }

type t = {
  config : config;
  pool : Pool.t;
  cache : entry Cache.t;
  sessions : session Cache.t;
  inflight : (string, (outcome, string) result Pool.promise) Hashtbl.t;
      (* digest -> promise of the first, still-running request for it *)
  named_digests : (string, string) Hashtbl.t;
      (* "algo@topology" -> digest; registry contents are fixed for the
         process lifetime, so this memo never invalidates *)
  mutable requests : int;
  mutable stop : bool;
}

let create config =
  if config.domains < 0 then invalid_arg "Engine.create: domains >= 0";
  (* domains = 0 means "size from the machine": the shared pool's cap,
     which set_cap/DFR_DOMAINS already bound to the core count *)
  let config =
    if config.domains = 0 then
      { config with domains = Dfr_util.Domain_pool.cap () }
    else config
  in
  {
    config;
    pool = Pool.create ~workers:config.workers ~capacity:config.capacity;
    cache =
      Cache.create ~max_entry_bytes:config.cache_entry_bytes
        ~capacity:config.cache_capacity ();
    sessions = Cache.create ~capacity:config.sessions ();
    inflight = Hashtbl.create 64;
    named_digests = Hashtbl.create 64;
    requests = 0;
    stop = false;
  }

let shutdown_requested t = t.stop
let requests t = t.requests
let domains t = t.config.domains
let shutdown t = Pool.shutdown t.pool

let stats_json t =
  Json.Obj
    [
      ("requests", Json.Int t.requests);
      ("cache", Cache.stats_json t.cache);
      ("sessions", Cache.stats_json t.sessions);
      ( "pool",
        Json.Obj
          [
            ("workers", Json.Int (Pool.workers t.pool));
            ("capacity", Json.Int (Pool.capacity t.pool));
            ("outstanding", Json.Int (Pool.outstanding t.pool));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* dispatch                                                            *)

let ready j = Ready j
let gauge_depth t = Obs.gauge "serve.queue.depth" (float_of_int (Pool.outstanding t.pool))

(* Deadlines are monotonic-clock instants: an NTP step of the wall clock
   must neither spuriously expire an in-flight request nor extend it. *)
let deadline_of t =
  if t.config.timeout_ms <= 0 then None
  else Some (Monotime.now () +. (float_of_int t.config.timeout_ms /. 1000.))

(* Digest of an elaborated problem, with a safety net: the canonical
   reprint refuses networks whose channels are not identity-unique (none
   ship in the registry, but a custom entry could).  Falling back to a
   digest of the tagged source keeps the cache correct — it only costs
   cross-surface sharing for that request. *)
let digest_fallback tag = Digest.to_hex (Digest.string ("fallback:" ^ tag))

let digest_of t (source : Problem.source) (p : Problem.t) =
  let compute tag name =
    match Dfr_spec.Printer.digest p.Problem.net p.Problem.algo with
    | Ok d -> d
    | Error _ -> digest_fallback (tag ^ name)
  in
  match source with
  (* requests carry spec text; a path only ever names a local file *)
  | Problem.Spec_text text | Problem.Spec_file text -> compute "spec:" text
  | Problem.Named { algo; topology } -> (
    let key = algo ^ "@" ^ Option.value topology ~default:"" in
    match Hashtbl.find_opt t.named_digests key with
    | Some d -> d
    | None ->
      let d = compute "registry:" key in
      Hashtbl.add t.named_digests key d;
      d)

let problem_error ~id e =
  Obs.count "serve.errors" 1;
  let kind =
    match e with Problem.Spec_error _ -> "spec" | Problem.Bad_request _ -> "bad_request"
  in
  Protocol.error_response ~id ~kind (Problem.message e)

let submit_check t ~id ~digest net algo =
  match Cache.find t.cache digest with
  | Some entry ->
    Obs.count "serve.cache.hits" 1;
    ready
      (Protocol.check_response ~id ~cached:true ~digest ~exit_code:entry.exit_code
         ~report:entry.report)
  | None -> (
    Obs.count "serve.cache.misses" 1;
    match Hashtbl.find_opt t.inflight digest with
    | Some promise ->
      (* coalesce: same problem already being checked; share its result *)
      Waiting { digest = Some digest; promise; deadline = deadline_of t; cached = true }
    | None -> (
      let domains = t.config.domains in
      let job () =
        Obs.span "serve.check" @@ fun () ->
        match Checker.check_result ~domains net algo with
        | Ok report ->
          Ok
            (Checked
               {
                 report = Report_json.of_outcome net algo report;
                 exit_code = Report_json.exit_code report.Checker.verdict;
               })
        | Error msg -> Error msg
      in
      match Pool.try_submit t.pool job with
      | None ->
        Obs.count "serve.queue_full" 1;
        ready
          (Protocol.error_response ~id ~kind:"queue_full"
             (Printf.sprintf "server at capacity (%d outstanding checks)"
                (Pool.capacity t.pool)))
      | Some promise ->
        Hashtbl.replace t.inflight digest promise;
        gauge_depth t;
        Waiting
          { digest = Some digest; promise; deadline = deadline_of t; cached = false }))

(* Incremental re-checks run synchronously on the orchestrator: the whole
   point of the delta path is sub-millisecond latency, and a mutable
   session must not be shared with a worker anyway.  A session miss (or
   an incompatible edit) falls back to a cold [Incr.create] inline —
   costly, but it seeds the session later deltas reuse. *)
let check_delta t ~id ~base ~spec =
  Obs.span "serve.check_delta" @@ fun () ->
  let source = Problem.Spec_text spec in
  match Problem.resolve source with
  | Error e -> problem_error ~id e
  | Ok ({ Problem.net; algo; spec = Some compiled; _ } as p) -> (
    let digest = digest_of t source p in
    let validated = compiled.Dfr_spec.Spec.elaborated.Dfr_spec.Elaborate.spec in
    let answer ~mode (res : Incr.result) =
      (* the delta verdict is the cold verdict, so plain checks of the
         edited spec may hit the cache on these bytes *)
      if not (Cache.mem t.cache digest) then begin
        let entry = { report = res.Incr.report; exit_code = res.Incr.exit_code } in
        let bytes = String.length (Json.to_string entry.report) in
        Cache.add ~bytes t.cache digest entry
      end;
      Obs.count ("serve.delta." ^ mode) 1;
      Protocol.check_delta_response ~id ~digest ~exit_code:res.Incr.exit_code
        ~report:res.Incr.report
        ~delta:
          (Json.Obj
             [
               ("base", Json.String base);
               ("mode", Json.String mode);
               ("dirty_dests", Json.Int res.Incr.dirty_dests);
               ("reused_dests", Json.Int res.Incr.reused_dests);
             ])
    in
    let cold () =
      match Incr.create ~domains:t.config.domains net algo with
      | exception Invalid_argument msg ->
        Obs.count "serve.errors" 1;
        Protocol.error_response ~id ~kind:"check" msg
      | incr, res ->
        Cache.add t.sessions digest { incr; validated; current = digest };
        answer ~mode:"cold" res
    in
    match Cache.find t.sessions base with
    | Some sess when sess.current = base -> (
      match Dfr_spec.Diff.diff sess.validated validated with
      | Dfr_spec.Diff.Incompatible _ -> cold ()
      | Dfr_spec.Diff.Frontier f -> (
        match Incr.update sess.incr algo ~dirty:f.Dfr_spec.Diff.dirty with
        | exception Invalid_argument _ ->
          (* e.g. the edit introduces a reduced-waits hint the session
             was built without; the session is untouched but easier to
             retire than to prove so *)
          sess.current <- "";
          cold ()
        | res ->
          sess.validated <- validated;
          sess.current <- digest;
          Cache.add t.sessions digest sess;
          answer
            ~mode:(match res.Incr.path with Incr.Fast -> "fast" | Incr.Replay -> "replay")
            res))
    | _ -> cold ())
  | Ok { Problem.spec = None; _ } -> assert false (* spec sources carry their spec *)

(* Fault campaigns run synchronously on the orchestrator, like the delta
   path: the campaign drives its own incremental session, which must not
   be shared with a worker.  The response embeds the campaign envelope
   verbatim — byte-identical at any worker/domain configuration. *)
let scenario t ~id ~source ~plan ~sweep =
  Obs.span "serve.scenario" @@ fun () ->
  match Problem.resolve source with
  | Error e -> problem_error ~id e
  | Ok { Problem.net; algo; _ } -> (
    match Dfr_scenario.Fault.parse plan with
    | Error msg ->
      Obs.count "serve.errors" 1;
      Protocol.error_response ~id ~kind:"bad_request" ("plan: " ^ msg)
    | Ok plan -> (
      let mode = if sweep then `Sweep else `Sequence in
      match
        Dfr_scenario.Scenario.campaign ~domains:t.config.domains ~mode net algo
          plan
      with
      | exception Invalid_argument msg ->
        Obs.count "serve.errors" 1;
        Protocol.error_response ~id ~kind:"check" msg
      | Error msg ->
        Obs.count "serve.errors" 1;
        Protocol.error_response ~id ~kind:"bad_request" msg
      | Ok c ->
        Obs.count "serve.scenarios" 1;
        Protocol.ok_response ~id ~op:"scenario"
          [
            ("exit", Json.Int c.Dfr_scenario.Scenario.exit_code);
            ("campaign", Dfr_scenario.Scenario.campaign_to_json c);
          ]))

let dispatch t ~id (req : Protocol.request) =
  match req with
  | Protocol.Ping -> ready (Protocol.ok_response ~id ~op:"ping" [])
  | Protocol.Catalogue ->
    ready
      (Protocol.ok_response ~id ~op:"catalogue"
         [ ("algorithms", Protocol.catalogue_json ()) ])
  | Protocol.Stats ->
    ready (Protocol.ok_response ~id ~op:"stats" [ ("stats", stats_json t) ])
  | Protocol.Shutdown ->
    t.stop <- true;
    ready (Protocol.ok_response ~id ~op:"shutdown" [])
  | Protocol.Sleep { ms } -> (
    let job () =
      Obs.span "serve.sleep" @@ fun () ->
      Unix.sleepf (float_of_int ms /. 1000.);
      Ok (Slept ms)
    in
    match Pool.try_submit t.pool job with
    | None ->
      Obs.count "serve.queue_full" 1;
      ready
        (Protocol.error_response ~id ~kind:"queue_full"
           (Printf.sprintf "server at capacity (%d outstanding checks)"
              (Pool.capacity t.pool)))
    | Some promise ->
      gauge_depth t;
      Waiting { digest = None; promise; deadline = deadline_of t; cached = false })
  | Protocol.Check source -> (
    match Problem.resolve source with
    | Error e -> ready (problem_error ~id e)
    | Ok p -> (
      (* the digest reprints the routing relation, so an algorithm that
         rejects the network (hop-class on a mesh too wide for its
         classes) raises here, before any check is queued *)
      match digest_of t source p with
      | exception Invalid_argument msg -> ready (problem_error ~id (Problem.Bad_request msg))
      | digest -> submit_check t ~id ~digest p.Problem.net p.Problem.algo))
  | Protocol.Check_delta { base; spec } -> ready (check_delta t ~id ~base ~spec)
  | Protocol.Scenario { source; plan; sweep } ->
    ready (scenario t ~id ~source ~plan ~sweep)

let handle_line t line =
  Obs.span "serve.request" @@ fun () ->
  t.requests <- t.requests + 1;
  Obs.count "serve.requests" 1;
  if t.stop then
    {
      id = None;
      state =
        ready
          (Protocol.error_response ~id:None ~kind:"shutting_down"
             "server is shutting down");
    }
  else
    match Protocol.parse line with
    | Error (id, msg) ->
      Obs.count "serve.errors" 1;
      { id; state = ready (Protocol.error_response ~id ~kind:"parse" msg) }
    | Ok { Protocol.id; req } -> { id; state = dispatch t ~id req }

(* ------------------------------------------------------------------ *)
(* settlement                                                          *)

let settle t ~id (p : pending) result =
  (match p.digest with
  | Some d -> Hashtbl.remove t.inflight d
  | None -> ());
  gauge_depth t;
  match result with
  | Ok (Ok (Checked entry)) ->
    let digest = Option.get p.digest in
    if not (Cache.mem t.cache digest) then begin
      (* the entry's weight is what a hit replays: the rendered report *)
      let bytes = String.length (Json.to_string entry.report) in
      Cache.add ~bytes t.cache digest entry
    end;
    Protocol.check_response ~id ~cached:p.cached ~digest ~exit_code:entry.exit_code
      ~report:entry.report
  | Ok (Ok (Slept ms)) ->
    Protocol.ok_response ~id ~op:"sleep" [ ("ms", Json.Int ms) ]
  | Ok (Error msg) ->
    Obs.count "serve.errors" 1;
    Protocol.error_response ~id ~kind:"check" msg
  | Error exn ->
    Obs.count "serve.errors" 1;
    Protocol.error_response ~id ~kind:"internal" (Printexc.to_string exn)

let timed_out t ~id (p : pending) =
  (* the worker cannot be interrupted; its eventual result is discarded
     and, the in-flight entry being gone, a retry recomputes *)
  (match p.digest with
  | Some d -> Hashtbl.remove t.inflight d
  | None -> ());
  Obs.count "serve.timeouts" 1;
  Protocol.error_response ~id ~kind:"timeout"
    (Printf.sprintf "request exceeded the %d ms deadline" t.config.timeout_ms)

let poll t slot =
  match slot.state with
  | Ready j -> Some j
  | Waiting p -> (
    match Pool.poll p.promise with
    | Some result ->
      let j = settle t ~id:slot.id p result in
      slot.state <- Ready j;
      Some j
    | None -> (
      match p.deadline with
      | Some d when Monotime.now () > d ->
        let j = timed_out t ~id:slot.id p in
        slot.state <- Ready j;
        Some j
      | _ -> None))

let await t slot =
  match slot.state with
  | Ready j -> j
  | Waiting p -> (
    match p.deadline with
    | None ->
      let j = settle t ~id:slot.id p (Pool.await p.promise) in
      slot.state <- Ready j;
      j
    | Some _ ->
      let rec spin () =
        match poll t slot with
        | Some j -> j
        | None ->
          Unix.sleepf 0.001;
          spin ()
      in
      spin ())
