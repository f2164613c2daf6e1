open Dfr_util
open Dfr_network
open Dfr_routing

type source =
  | Named of { algo : string; topology : string option }
  | Spec_file of string
  | Spec_text of string

type t = { name : string; net : Net.t; algo : Algo.t; spec : Spec.t option }
type error = Spec_error of string | Bad_request of string

let message = function Spec_error msg | Bad_request msg -> msg

let of_spec ?file = function
  | Error e -> Error (Spec_error (Spec.error_to_string ?file e))
  | Ok (s : Spec.t) ->
    Ok { name = s.Spec.algo.Algo.name; net = s.Spec.net; algo = s.Spec.algo; spec = Some s }

let resolve = function
  | Spec_file file -> of_spec ~file (Spec.load_file file)
  | Spec_text text -> of_spec (Spec.compile_string text)
  | Named { algo; topology } -> (
    match Registry.find algo with
    | None ->
      Error
        (Bad_request
           (Printf.sprintf "unknown algorithm %S; known: %s" algo
              (String.concat ", " (Registry.names ()))))
    | Some e -> (
      match
        Option.fold topology ~none:(Ok None) ~some:(fun s ->
            Result.map Option.some (Dfr_topology.Topology.of_string s))
      with
      | Error msg -> Error (Bad_request msg)
      | Ok topo -> (
        match Registry.network_for e topo with
        | exception Invalid_argument msg -> Error (Bad_request msg)
        | net -> Ok { name = e.Registry.name; net; algo = e.Registry.algo; spec = None })))

let of_json doc =
  let field k = Option.bind (Json.member k doc) Json.to_str in
  match (field "spec", field "algo") with
  | Some text, _ -> Some (Spec_text text)
  | None, Some algo -> Some (Named { algo; topology = field "topology" })
  | None, None -> None

let to_json = function
  | Named { algo; topology } ->
    Ok
      (("algo", Json.String algo)
      :: Option.fold topology ~none:[] ~some:(fun t -> [ ("topology", Json.String t) ]))
  | Spec_text text -> Ok [ ("spec", Json.String text) ]
  | Spec_file file -> (
    match Spec.read_file file with
    | text -> Ok [ ("spec", Json.String text) ]
    | exception Sys_error msg -> Error msg)
