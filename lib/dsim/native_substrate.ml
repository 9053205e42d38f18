(* The native-codegen substrate: emit real OCaml from the pipeline IR,
   compile it out-of-process with `ocamlopt -shared`, Dynlink the
   resulting `.cmxs` back in, and drive it behind the {!Substrate} contract.

   This reproduces the paper's actual dgen methodology: dgen writes Rust
   source that rustc compiles together with dsim, and the measured artifact
   is the generated code (§3.4, Table 1).  The interpreter and the closure
   backend remain the slow references that keep this fast generated artifact
   honest — the campaign oracle diffs all of them.

   Layers:
   - {b emission}: {!Druzhba_pipeline.Emit.native_source} renders the IR as
     a self-contained module (machine code baked in, no hashtables or
     closures on the tick path) that registers itself through {!Native_abi}.
   - {b build cache}: compiled `.cmxs` artifacts are content-addressed by a
     digest of (emitted source, compiler version, ABI version) in an
     on-disk cache shared by concurrent processes — publication reuses the
     checkpoint writer's atomic tmp + fsync + rename discipline, so forked
     service workers racing on one program never observe torn artifacts.
   - {b degradation}: every entry point returns [Error reason] instead of
     raising when the toolchain is unavailable (no ocamlopt on [PATH],
     bytecode host, no cmi directory, or [DRUZHBA_NATIVE_DISABLE] set) or
     a build fails (compiler error, unusable cache directory); callers fall
     back to the interpreted paths with a structured note.
   - {b driver}: the runtime mirrors {!Compiled} tick-for-tick (ping-pong
     register file, occupancy bitmask, budget spends, fault overlays), so
     traces, final state, and fuel accounting are bit-identical to the
     Engine/Compiled substrates by construction of the emitted code.

   Environment knobs: [DRUZHBA_NATIVE_DISABLE] forces unavailability (the
   CI no-toolchain job and the skip-path tests use it);
   [DRUZHBA_NATIVE_CACHE_DIR] overrides the cache location (default
   `<tmpdir>/druzhba-native-cache`); [DRUZHBA_NATIVE_INCLUDE] pins the
   directory holding `druzhba_dsim.cmi` when auto-discovery cannot find the
   dune build tree. *)

module Ir = Druzhba_pipeline.Ir
module Emit = Druzhba_pipeline.Emit
module Machine_code = Druzhba_machine_code.Machine_code
module Atomic_file = Druzhba_util.Atomic_file

(* --- Toolchain discovery ---------------------------------------------------- *)

type toolchain = { tc_ocamlopt : string; tc_include : string }

let find_in_path exe =
  match Sys.getenv_opt "PATH" with
  | None -> None
  | Some path ->
    String.split_on_char ':' path
    |> List.find_map (fun dir ->
           if dir = "" then None
           else
             let p = Filename.concat dir exe in
             match Unix.access p [ Unix.X_OK ] with
             | () -> if Sys.is_directory p then None else Some p
             | exception Unix.Unix_error (_, _, _) -> None)

let has_cmis dir =
  Sys.file_exists (Filename.concat dir "druzhba_dsim.cmi")
  && Sys.file_exists (Filename.concat dir "druzhba_dsim__Native_abi.cmi")

(* The emitted module references [Druzhba_dsim.Native_abi], so ocamlopt
   needs the cmi of the wrapped library.  In a dune tree those live in
   `_build/default/lib/dsim/.druzhba_dsim.objs/byte`; we look for that
   directory upward from the running executable and from the cwd, which
   covers `dune exec`, the installed `_build` binaries, and the test
   runner. *)
let discover_include () =
  match Sys.getenv_opt "DRUZHBA_NATIVE_INCLUDE" with
  | Some dir when dir <> "" -> if has_cmis dir then Some dir else None
  | _ ->
    let objs = Filename.concat "lib/dsim" ".druzhba_dsim.objs/byte" in
    let candidates root =
      [ Filename.concat root objs; Filename.concat (Filename.concat root "_build/default") objs ]
    in
    let rec walk dir n =
      if n = 0 then None
      else
        match List.find_opt has_cmis (candidates dir) with
        | Some found -> Some found
        | None ->
          let parent = Filename.dirname dir in
          if String.equal parent dir then None else walk parent (n - 1)
    in
    let exe_dir = try Filename.dirname Sys.executable_name with Sys_error _ -> "." in
    let cwd = try Sys.getcwd () with Sys_error _ -> "." in
    (match walk exe_dir 8 with Some d -> Some d | None -> walk cwd 8)

let disabled () =
  match Sys.getenv_opt "DRUZHBA_NATIVE_DISABLE" with
  | Some s when s <> "" -> true
  | _ -> false

(* Probed per call (cheap stats, no child process), so tests can flip the
   environment at runtime and availability tracks it.  The emitted module
   uses no findlib package, so the compiler is called directly, without an
   ocamlfind process in front; [ocamlopt.opt] is preferred because
   [ocamlopt] may be the slower bytecode build of the compiler. *)
let probe () : (toolchain, string) result =
  if disabled () then Error "disabled via DRUZHBA_NATIVE_DISABLE"
  else if not Dynlink.is_native then
    Error "host is running bytecode (Dynlink.is_native = false); natdynlink unavailable"
  else
    match List.find_map find_in_path [ "ocamlopt.opt"; "ocamlopt" ] with
    | None -> Error "ocamlopt not found on PATH"
    | Some ocamlopt -> (
      match discover_include () with
      | None ->
        Error
          "druzhba_dsim cmi directory not found (set DRUZHBA_NATIVE_INCLUDE to the \
           .druzhba_dsim.objs/byte directory)"
      | Some inc -> Ok { tc_ocamlopt = ocamlopt; tc_include = inc })

let available () : (unit, string) result = Result.map (fun _ -> ()) (probe ())

(* --- Content-addressed build cache ------------------------------------------ *)

let cache_dir () =
  match Sys.getenv_opt "DRUZHBA_NATIVE_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "druzhba-native-cache"

let rec mkdir_p dir =
  if (not (Sys.file_exists dir)) && not (String.equal dir (Filename.dirname dir)) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The content address covers everything the artifact depends on: the
   emitted source (itself a pure function of description + machine code),
   the compiler that built it, and the host ABI the module registers
   through.  Equal key => interchangeable `.cmxs`. *)
let content_key source =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "druzhba-native|abi=%d|%s|%s" Native_abi.version Sys.ocaml_version source))

let module_name key = "druzhba_native_" ^ key

(* Where the build cache holds (or would hold) the artifact for this
   (description, machine code) under the current environment.  Exposed so
   tests and operators can inspect, pre-seed, or evict cache entries; note
   that within one process a path that has already been Dynlinked is served
   from the loader's handle cache, so editing it has no effect until a
   fresh process reads it. *)
let artifact_path (desc : Ir.t) ~mc =
  Filename.concat (cache_dir ()) (module_name (content_key (Emit.native_source desc ~mc)) ^ ".cmxs")

let remove_tree dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ()) entries;
    (try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ())

let read_file_tail path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> ""
  | s ->
    let s = String.trim s in
    if String.length s <= 2000 then s else String.sub s (String.length s - 2000) 2000

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  | (_, status) -> status

let run_command argv ~stderr_file : (unit, string) result =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let err_fd =
    Unix.openfile stderr_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close devnull with Unix.Unix_error (_, _, _) -> ());
        try Unix.close err_fd with Unix.Unix_error (_, _, _) -> ())
      (fun () -> Unix.create_process argv.(0) argv devnull err_fd err_fd)
  in
  match waitpid_retry pid with
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED n -> Error (Printf.sprintf "exit %d: %s" n (read_file_tail stderr_file))
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    Error (Printf.sprintf "signal %d: %s" n (read_file_tail stderr_file))

(* Build-cache instrumentation, read by tests and the bench report.  The
   counters are atomic because builds run outside the lock. *)
type stats = { st_compiles : int; st_cache_hits : int; st_memo_hits : int }

let n_compiles = Atomic.make 0
let n_cache_hits = Atomic.make 0
let n_memo_hits = Atomic.make 0

(* Compiles [source] into the cache if no artifact for [key] exists yet;
   returns the cached `.cmxs` path.  Staging happens in a per-pid build
   directory (ocamlopt writes its .cmi/.cmx/.o next to the source, and the
   module name must match the final file name), and publication is an
   atomic rename — two processes racing on one key each stage privately and
   the renames serialize.  An unusable cache directory, a failed write or
   a failed spawn is an [Error], like a compiler error. *)
let compile_cmxs tc ~source ~key : (string, string) result =
  let cache = cache_dir () in
  let dest = Filename.concat cache (module_name key ^ ".cmxs") in
  if Sys.file_exists dest then begin
    Atomic.incr n_cache_hits;
    Ok dest
  end
  else begin
    Atomic.incr n_compiles;
    let build = Filename.concat cache (Printf.sprintf "build.%d.%s" (Unix.getpid ()) key) in
    let ml = Filename.concat build (module_name key ^ ".ml") in
    let cmxs = Filename.concat build (module_name key ^ ".cmxs") in
    let compile () =
      mkdir_p build;
      Out_channel.with_open_bin ml (fun oc -> Out_channel.output_string oc source);
      let argv = [| tc.tc_ocamlopt; "-shared"; "-w"; "-a"; "-I"; tc.tc_include; "-o"; cmxs; ml |] in
      match run_command argv ~stderr_file:(Filename.concat build "stderr") with
      | Error e -> Error (Printf.sprintf "ocamlopt failed (%s)" e)
      | Ok () ->
        if not (Sys.file_exists cmxs) then Error "ocamlopt produced no .cmxs"
        else begin
          Atomic_file.atomic_publish ~src:cmxs ~dest;
          Ok dest
        end
    in
    Fun.protect
      ~finally:(fun () -> remove_tree build)
      (fun () ->
        try compile () with
        | Unix.Unix_error (err, fn, arg) ->
          Error
            (Printf.sprintf "native build in %s failed: %s %s: %s" cache fn arg
               (Unix.error_message err))
        | Sys_error msg -> Error (Printf.sprintf "native build in %s failed: %s" cache msg))
  end

let load_cmxs path : (Native_abi.plugin, string) result =
  match Dynlink.loadfile_private path with
  | exception Dynlink.Error e -> Error (Dynlink.error_message e)
  | exception e -> Error (Printexc.to_string e)
  | () -> (
    match Native_abi.take () with
    | Some p -> Ok p
    | None -> Error "loaded module did not register a plugin")

(* One global mutex guards three things: the plugin memo, the set of keys
   some domain is building ([in_flight]), and Dynlink (not safe for
   concurrent use) together with its one-slot {!Native_abi} handshake.
   The build itself — an ocamlopt child process, most of a cold trial —
   runs with the lock released, so domains building different programs
   overlap.  A domain that asks for a key already in flight waits on
   [built] and then takes the memo hit, so each program still compiles
   once per process.  Loaded plugins are memoized per content key: the
   emitted code is pure over caller-provided arrays, so one plugin instance
   serves any number of substrate values concurrently. *)
let lock = Mutex.create ()
let built = Condition.create ()
let memo : (string, Native_abi.plugin) Hashtbl.t = Hashtbl.create 16
let in_flight : (string, unit) Hashtbl.t = Hashtbl.create 4

let stats () =
  {
    st_compiles = Atomic.get n_compiles;
    st_cache_hits = Atomic.get n_cache_hits;
    st_memo_hits = Atomic.get n_memo_hits;
  }

(* Drops the in-process plugin memo (the on-disk cache is untouched); test
   hook for exercising cache hit and corrupted-artifact paths. *)
let clear_memo () = Mutex.protect lock (fun () -> Hashtbl.reset memo)

(* Under [lock]: the memoized plugin, or [None] once this domain holds the
   claim on [key] — after waiting out any domain already building it.  A
   failed build is not memoized, so a woken waiter then builds the key
   itself. *)
let rec claim key =
  match Hashtbl.find_opt memo key with
  | Some p ->
    Atomic.incr n_memo_hits;
    Some p
  | None when Hashtbl.mem in_flight key ->
    Condition.wait built lock;
    claim key
  | None ->
    Hashtbl.replace in_flight key ();
    None

(* Compile (lock released) and load (lock held) the plugin for a claimed
   key. *)
let build tc (desc : Ir.t) ~source ~key : (Native_abi.plugin, string) result =
  let load path = Mutex.protect lock (fun () -> load_cmxs path) in
  let result =
    match compile_cmxs tc ~source ~key with
    | Error e -> Error e
    | Ok path -> (
      match load path with
      | Ok p -> Ok p
      | Error first -> (
        (* a corrupted cached artifact (torn write from a killed
           process, stale compiler) is evicted and rebuilt once *)
        (try Sys.remove path with Sys_error _ -> ());
        match compile_cmxs tc ~source ~key with
        | Error e -> Error (Printf.sprintf "%s (after evicting corrupt cache: %s)" e first)
        | Ok path -> load path))
  in
  match result with
  | Ok p when p.Native_abi.np_depth <> desc.Ir.d_depth || p.Native_abi.np_width <> desc.Ir.d_width
    ->
    Error "loaded plugin geometry does not match the description"
  | Ok p ->
    Mutex.protect lock (fun () -> Hashtbl.replace memo key p);
    Ok p
  | Error _ -> result

let plugin_for (desc : Ir.t) ~mc : (Native_abi.plugin, string) result =
  match probe () with
  | Error e -> Error e
  | Ok tc -> (
    let source = Emit.native_source desc ~mc in
    let key = content_key source in
    match Mutex.protect lock (fun () -> claim key) with
    | Some p -> Ok p
    | None ->
      (* the claim is released and waiters woken on every path *)
      Fun.protect
        ~finally:(fun () ->
          Mutex.protect lock (fun () ->
              Hashtbl.remove in_flight key;
              Condition.broadcast built))
        (fun () -> build tc desc ~source ~key))

(* --- Runtime driver ---------------------------------------------------------

   A faithful mirror of {!Compiled}'s tick loop: double-buffered flat
   (depth+1) x width register file, occupancy bitmask, one budget unit per
   tick, and the fault protocol of {!Faults.run_compiled} transcribed over
   the plugin's state rows. *)

type t = {
  plugin : Native_abi.plugin;
  label : string;
  depth : int;
  width : int;
  state : int array array; (* one row per stateful ALU, stage-major *)
  mutable cur : int array;
  mutable nxt : int array;
  mutable occ : int;
  mutable tick : int;
  mutable init : (string * int array) list;
}

let reset t = Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.state

let load_state_rows t init =
  match init with
  | [] -> ()
  | _ ->
    let tbl = Hashtbl.create (max 16 (List.length init)) in
    (* first binding wins, like the scalar engines *)
    List.iter
      (fun (name, values) -> if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name values)
      init;
    Array.iteri
      (fun g row ->
        match Hashtbl.find_opt tbl t.plugin.Native_abi.np_state_names.(g) with
        | Some values -> Array.blit values 0 row 0 (min (Array.length values) (Array.length row))
        | None -> ())
      t.state

let tick_once t =
  let depth = t.depth and width = t.width in
  let occ = t.occ in
  let new_occ = ref 0 in
  let exec = t.plugin.Native_abi.np_exec_stage in
  for s = 0 to depth - 1 do
    if occ land (1 lsl s) <> 0 then begin
      exec t.state s t.cur t.nxt;
      new_occ := !new_occ lor (1 lsl (s + 1))
    end
  done;
  if occ land 1 <> 0 then begin
    Array.blit t.cur 0 t.nxt 0 width;
    new_occ := !new_occ lor 1
  end;
  let swapped = t.cur in
  t.cur <- t.nxt;
  t.nxt <- swapped;
  t.occ <- !new_occ;
  t.tick <- t.tick + 1;
  !new_occ land (1 lsl depth) <> 0

let inject t (phv : Phv.t) =
  Array.blit phv 0 t.cur 0 t.width;
  t.occ <- t.occ lor 1

let no_inject t = t.occ <- t.occ land lnot 1

let current_state t =
  Array.to_list
    (Array.mapi (fun g row -> (t.plugin.Native_abi.np_state_names.(g), Array.copy row)) t.state)

let apply_stuck t (plan : Faults.t) =
  List.iter
    (fun (s : Faults.stuck) ->
      t.state.(t.plugin.Native_abi.np_stage_bases.(s.Faults.sk_stage) + s.Faults.sk_alu).(s.Faults.sk_slot) <-
        s.Faults.sk_value)
    plan.Faults.fp_stuck

let rearm t =
  reset t;
  load_state_rows t t.init;
  t.occ <- 0;
  t.tick <- 0

let run_seq ?budget t ~inputs (buf : Trace.Buffer.t) =
  rearm t;
  Trace.Buffer.clear buf;
  let spend = match budget with None -> ignore | Some b -> fun () -> Budget.spend b in
  let out_off = t.depth * t.width in
  List.iter
    (fun phv ->
      spend ();
      inject t phv;
      if tick_once t then Trace.Buffer.push buf t.cur ~off:out_off)
    inputs;
  for _ = 1 to t.depth do
    spend ();
    no_inject t;
    if tick_once t then Trace.Buffer.push buf t.cur ~off:out_off
  done

let run_faults_seq ?budget plan t ~inputs (buf : Trace.Buffer.t) =
  rearm t;
  Trace.Buffer.clear buf;
  let spend = match budget with None -> ignore | Some b -> fun () -> Budget.spend b in
  apply_stuck t plan;
  let out_off = t.depth * t.width in
  List.iteri
    (fun i phv ->
      spend ();
      if i < Array.length plan.Faults.fp_dropped && plan.Faults.fp_dropped.(i) then no_inject t
      else begin
        inject t phv;
        Faults.apply_flips plan t.cur i
      end;
      if tick_once t then Trace.Buffer.push buf t.cur ~off:out_off;
      apply_stuck t plan)
    inputs;
  for _ = 1 to t.depth do
    spend ();
    no_inject t;
    if tick_once t then Trace.Buffer.push buf t.cur ~off:out_off;
    apply_stuck t plan
  done

module Native_sub = struct
  type nonrec t = t

  let name t = t.label
  let width t = t.width

  let load_state t init =
    t.init <- init;
    (* also arm the live state so step-based use sees the preload *)
    reset t;
    load_state_rows t init

  let run_into ?budget ?faults t ~inputs buf =
    match faults with
    | None -> run_seq ?budget t ~inputs buf
    | Some plan -> run_faults_seq ?budget plan t ~inputs buf

  let current_state = current_state

  let step t ~input =
    (match input with Some phv -> inject t phv | None -> no_inject t);
    if tick_once t then Some (Array.sub t.cur (t.depth * t.width) t.width) else None

  let boundaries t : Phv.t option array =
    Array.init (t.depth + 1) (fun s ->
        if t.occ land (1 lsl s) <> 0 then Some (Array.sub t.cur (s * t.width) t.width) else None)
end

(* [create ?label ?init desc ~mc] emits, compiles (or reuses a cached
   artifact), loads, and packs the native substrate.  [Error reason] means
   the toolchain is unavailable or the out-of-process compile failed; the
   caller degrades to the interpreted paths. *)
let create ?(label = "native") ?(init = []) (desc : Ir.t) ~mc : (Substrate.packed, string) result =
  match plugin_for desc ~mc with
  | Error e -> Error e
  | Ok plugin ->
    let depth = desc.Ir.d_depth and width = desc.Ir.d_width in
    if depth + 1 >= Sys.int_size then
      invalid_arg "Native_substrate.create: pipeline depth exceeds the occupancy bitmask";
    let t =
      {
        plugin;
        label;
        depth;
        width;
        state = plugin.Native_abi.np_alloc ();
        cur = Array.make ((depth + 1) * width) 0;
        nxt = Array.make ((depth + 1) * width) 0;
        occ = 0;
        tick = 0;
        init;
      }
    in
    reset t;
    load_state_rows t init;
    Ok (Substrate.Packed ((module Native_sub), t))
