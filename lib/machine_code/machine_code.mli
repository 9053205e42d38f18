(** Machine code for the Druzhba pipeline.

    A machine-code program is a list of [(string, int)] pairs (paper §3.1):
    the string names a hardware primitive and its location in the pipeline
    (e.g. ["pipeline_stage_0_stateful_alu_1_mux3_0"]); the integer programs
    that primitive — a mux selector, an opcode, or an immediate.  Selector
    values live in control space (they are never truncated to the datapath
    width); immediates are truncated where they enter the datapath.

    Pairs that the pipeline needs but the program lacks are a compiler bug —
    the class the paper's case study found twice (§5.2); {!validate} detects
    exactly that. *)

type t
(** A mutable machine-code program (name [->] value). *)

val empty : unit -> t

val of_list : (string * int) list -> t
(** Later bindings of the same name win.  For programmatic construction;
    external input should go through {!of_pairs}, which rejects
    duplicates.
    @raise Invalid_argument on a name the text format cannot represent
    (empty, containing ['#'], ['='], a newline, or surrounding whitespace)
    — such a name would silently change key, or collide with another pair,
    when the program is printed and parsed back. *)

val of_pairs : (string * int) list -> (t, string) result
(** Strict constructor: [Error] names every key bound more than once, and
    every name the text format cannot represent (see {!of_list}).  A
    duplicate pair in compiler output means two rules both believed they
    owned a control — silently letting one binding win hides the bug. *)

val duplicates : (string * int) list -> string list
(** Keys bound more than once, in first-occurrence order (each reported
    once). *)

val to_alist : t -> (string * int) list
(** All pairs, sorted by name. *)

val copy : t -> t
(** An independent copy (mutations do not propagate). *)

val set : t -> string -> int -> unit
(** @raise Invalid_argument on an unrepresentable name (see {!of_list}). *)

val find_opt : t -> string -> int option

exception Missing of string
(** Raised by {!find} when a required pair is absent, and by simulation of
    an unoptimized description when it reaches a pair the program lacked
    when the executor was built. *)

val find : t -> string -> int
(** For building executors and for program transformations; no executor
    calls it on a tick.
    @raise Missing when the name is unbound. *)

val remove : t -> string -> unit
val mem : t -> string -> bool
val cardinal : t -> int

val override : t -> t -> t
(** [override base extra] is a fresh program with every pair of [extra]
    added to (and overriding) [base]; neither input is modified. *)

val parse : string -> (t, string) result
(** Parses the on-disk format: one ["name = value"] per line, blank lines
    and [#] comments ignored.  Total: every malformed line and every
    duplicate key is reported in [Error] (with its line number where
    applicable); no exception escapes. *)

val parse_pairs : string -> ((string * int) list, string) result
(** As {!parse}, but returns the raw pairs in file order with duplicates
    preserved — the form lint needs to report duplicate keys as findings
    instead of refusing the file outright. *)

val pp : t Fmt.t
(** Prints in the {!parse} format, sorted by name. *)

val to_string : t -> string

(** Domain of one machine-code control, as reported by the pipeline
    description ([Ir.control_domains] re-exports this type). *)
type domain =
  | Selector of int  (** valid values are [[0, n)] *)
  | Immediate  (** any value of the datapath width *)

type violation =
  | Missing_pair of string  (** a required pair is absent (§5.2 class 1) *)
  | Out_of_range of { vi_name : string; vi_value : int; vi_bound : int }
      (** a selector value lies outside its domain [[0, vi_bound)]; at
          simulation time it silently falls through to the mux's default
          arm, so fuzzing alone may not catch it *)

val pp_violation : violation Fmt.t

val validate : domains:(string * domain) list -> t -> (unit, violation list) result
(** [validate ~domains t] checks the program against the pipeline's control
    domains: every listed name must be present, and selector values must lie
    inside [[0, n)].  [Error violations] lists every defect, in domain
    order. *)
