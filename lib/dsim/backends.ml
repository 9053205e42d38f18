(* The execution-backend registry: every way this repo can turn a pipeline
   description + machine code into a {!Substrate.packed}, keyed by name.

   The oracle, the campaign runner, the service protocol, and the CLI all
   select backends through this table instead of hard-coding constructors,
   so adding a backend (as the native-codegen substrate did) is one entry
   here plus a campaign family — no plumbing changes.

   [be_available] is probed before [be_create]: a backend with external
   requirements (the native substrate needs ocamlopt + natdynlink) reports
   a structured reason instead of failing mid-campaign, and callers degrade
   gracefully. *)

module Ir = Druzhba_pipeline.Ir
module Compile = Druzhba_pipeline.Compile
module Machine_code = Druzhba_machine_code.Machine_code

type entry = {
  be_name : string;
  be_description : string;
  be_available : unit -> (unit, string) result;
  be_create :
    ?label:string ->
    ?init:(string * int array) list ->
    Ir.t ->
    mc:Machine_code.t ->
    (Substrate.packed, string) result;
}

let always () = Ok ()

let interpreter =
  {
    be_name = "interpreter";
    be_description = "tree-walking reference interpreter (Engine)";
    be_available = always;
    be_create = (fun ?label ?init desc ~mc -> Ok (Substrate.of_engine ?label ?init desc ~mc));
  }

let compiled =
  {
    be_name = "compiled";
    be_description = "closure-compiled in-process backend (Compile + Compiled)";
    be_available = always;
    be_create =
      (fun ?label ?init desc ~mc -> Ok (Substrate.of_compiled ?label ?init (Compile.compile desc ~mc)));
  }

let native =
  {
    be_name = "native";
    be_description = "emitted OCaml compiled out-of-process and Dynlinked (.cmxs)";
    be_available = Native_substrate.available;
    be_create = (fun ?label ?init desc ~mc -> Native_substrate.create ?label ?init desc ~mc);
  }

let all = [ interpreter; compiled; native ]
let find name = List.find_opt (fun e -> String.equal e.be_name name) all
let names () = List.map (fun e -> e.be_name) all
