open Dfr_util
open Dfr_topology
open Dfr_routing
module Problem = Dfr_spec.Problem

type request =
  | Check of Problem.source
  | Check_delta of { base : string; spec : string }
  | Scenario of { source : Problem.source; plan : string; sweep : bool }
  | Catalogue
  | Stats
  | Ping
  | Sleep of { ms : int }
  | Shutdown

type parsed = { id : Json.t option; req : request }

let max_sleep_ms = 60_000

let parse line =
  match Json.of_string line with
  | Error msg -> Error (None, "invalid JSON: " ^ msg)
  | Ok doc -> (
    let id = Json.member "id" doc in
    let err msg = Error (id, msg) in
    let with_problem op k =
      match Problem.of_json doc with
      | Some source -> k source
      | None -> err (Printf.sprintf "op %S needs a \"spec\" or an \"algo\" field" op)
    in
    match doc with
    | Json.Obj _ -> (
      match Option.bind (Json.member "op" doc) Json.to_str with
      | None -> err "missing or non-string \"op\""
      | Some "check" -> with_problem "check" (fun source -> Ok { id; req = Check source })
      | Some "check_delta" -> (
        match
          ( Option.bind (Json.member "base" doc) Json.to_str,
            Option.bind (Json.member "spec" doc) Json.to_str )
        with
        | Some base, Some spec -> Ok { id; req = Check_delta { base; spec } }
        | None, _ -> err "op \"check_delta\" needs a string \"base\" digest"
        | _, None -> err "op \"check_delta\" needs a \"spec\" field")
      | Some "scenario" -> (
        match Option.bind (Json.member "plan" doc) Json.to_str with
        | None -> err "op \"scenario\" needs a \"plan\" field (plan-file text)"
        | Some plan -> (
          let sweep =
            match Option.bind (Json.member "mode" doc) Json.to_str with
            | Some "sequence" -> Ok false
            | Some "sweep" | None -> Ok true
            | Some m ->
              Error (Printf.sprintf "unknown scenario mode %S (sweep|sequence)" m)
          in
          match sweep with
          | Error msg -> err msg
          | Ok sweep ->
            with_problem "scenario" (fun source ->
                Ok { id; req = Scenario { source; plan; sweep } })))
      | Some "catalogue" -> Ok { id; req = Catalogue }
      | Some "stats" -> Ok { id; req = Stats }
      | Some "ping" -> Ok { id; req = Ping }
      | Some "sleep" -> (
        match Option.bind (Json.member "ms" doc) Json.to_int with
        | Some ms when ms >= 0 && ms <= max_sleep_ms -> Ok { id; req = Sleep { ms } }
        | _ ->
          err (Printf.sprintf "op \"sleep\" needs \"ms\" in 0..%d" max_sleep_ms))
      | Some "shutdown" -> Ok { id; req = Shutdown }
      | Some op -> err (Printf.sprintf "unknown op %S" op))
    | _ -> err "request must be a JSON object")

(* ------------------------------------------------------------------ *)
(* responses                                                           *)

let with_id ~id fields =
  match id with Some v -> ("id", v) :: fields | None -> fields

let ok_response ~id ~op fields =
  Json.Obj (with_id ~id (("ok", Json.Bool true) :: ("op", Json.String op) :: fields))

let error_response ~id ~kind msg =
  Json.Obj
    (with_id ~id
       [
         ("ok", Json.Bool false);
         ( "error",
           Json.Obj
             [ ("kind", Json.String kind); ("message", Json.String msg) ] );
       ])

let check_response ~id ~cached ~digest ~exit_code ~report =
  ok_response ~id ~op:"check"
    [
      ("cached", Json.Bool cached);
      ("digest", Json.String digest);
      ("exit", Json.Int exit_code);
      ("report", report);
    ]

let check_delta_response ~id ~digest ~exit_code ~report ~delta =
  ok_response ~id ~op:"check_delta"
    [
      ("digest", Json.String digest);
      ("exit", Json.Int exit_code);
      ("report", report);
      ("delta", delta);
    ]

let catalogue_json () =
  Json.List
    (List.map
       (fun (e : Registry.entry) ->
         Json.Obj
           [
             ("name", Json.String e.Registry.name);
             ( "expected_deadlock_free",
               match e.Registry.expected_deadlock_free with
               | Some b -> Json.Bool b
               | None -> Json.Null );
             ("description", Json.String e.Registry.description);
             ( "default_topology",
               match Registry.default_topology e with
               | Some t -> Json.String (Topology.name t)
               | None -> Json.Null );
           ])
       Registry.all)
