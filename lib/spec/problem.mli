(** One checking problem — a network and the routing relation on it —
    resolved from wherever a user named it: a catalogue algorithm with an
    optional topology string, a [.dfr] file, or [.dfr] text.  Every
    [dfcheck] subcommand and every serve op that takes a problem goes
    through {!resolve}, so an unknown name, a bad topology string or a
    malformed spec is reported with the same words on every surface. *)

open Dfr_util
open Dfr_network
open Dfr_routing

type source =
  | Named of { algo : string; topology : string option }
      (** a {!Registry} entry; [None] picks the entry's default topology *)
  | Spec_file of string  (** path of a [.dfr] file *)
  | Spec_text of string  (** [.dfr] source text *)

type t = {
  name : string;  (** the registry name, or the spec's algorithm name *)
  net : Net.t;
  algo : Algo.t;
  spec : Spec.t option;  (** the compiled spec, for the spec sources *)
}

type error =
  | Spec_error of string
      (** the spec does not read or compile; a file's message names it *)
  | Bad_request of string
      (** unknown algorithm (the message lists the known names), a
          topology string outside {!Dfr_topology.Topology.grammar_summary},
          or a network the algorithm's family cannot be built on *)

val message : error -> string

val resolve : source -> (t, error) result
(** A route function that rejects the network it is given is not detected
    here: it raises when the relation is first evaluated. *)

val of_json : Json.t -> source option
(** The problem named by a request object's ["spec"], ["algo"] and
    ["topology"] fields; ["spec"] wins over ["algo"].  [None] when the
    object has neither. *)

val to_json : source -> ((string * Json.t) list, string) result
(** The request fields {!of_json} reads back; a spec file is sent as its
    text.  [Error] when the file cannot be read. *)
