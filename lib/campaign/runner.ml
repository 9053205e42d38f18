(* Multicore trial runner.

   Shards independent trials across OCaml 5 domains.  The contract that
   makes `--jobs` invisible in the results: a trial's outcome must be a pure
   function of its index (campaigns derive every per-trial seed from the
   master seed and the index with {!Druzhba_util.Prng.derive}), so the
   result array is identical however trials land on domains — only the
   wall-clock changes.

   Caveat for callers: the trial function runs concurrently on several
   domains, so any shared lazy values it forces (e.g. the parsed atom
   library) must be forced *before* calling — OCaml's [Lazy] is not
   domain-safe.  {!Campaign.run} and the case-study harness do this. *)

let force_atoms () =
  List.iter
    (fun name -> ignore (Druzhba_atoms.Atoms.find_exn name))
    Druzhba_atoms.Atoms.all_names

(* [parallel_init ~jobs n f] is [Array.init n f] on up to [jobs] domains,
   and [parallel_map] its list-shaped form: {!Druzhba_util.Parallel}'s
   pool, whose lowest-index exception rule keeps failures the same across
   job counts.  (Campaign trials catch their own exceptions long before
   that; it is the runner's own last line of defence.) *)
let parallel_init = Druzhba_util.Parallel.init
let parallel_map = Druzhba_util.Parallel.map

let default_jobs () = Domain.recommended_domain_count ()
