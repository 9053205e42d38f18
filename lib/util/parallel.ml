(* A small domain pool.

   Work distribution is dynamic (an atomic next-index counter) rather than
   static chunking: items vary wildly in cost (a campaign trial that
   diverges shrinks, which re-simulates many times; a group build compiles
   many programs), and a static split would leave domains idle behind one
   expensive shard.  Each result slot is written by exactly one domain, and
   [Domain.join] publishes the writes, so no lock is needed around the
   results array.

   Caveat for callers: [f] runs concurrently on several domains, so any
   shared lazy values it forces must be forced *before* calling — OCaml's
   [Lazy] is not domain-safe. *)

(* [init ~jobs n f] is [Array.init n f] computed on up to [jobs] domains
   (including the calling one).  [f] is applied to each index exactly once;
   the result array is in index order.

   Exception containment: a worker that lets an exception out of [f] must
   not silently shrink the pool (the remaining domains would crawl through
   the rest of the items and the join would then fail on the missing
   slots).  Every slot therefore captures [Ok v | Error exn]; workers never
   die, and after the join the *lowest-indexed* captured exception is
   re-raised on the calling domain — the same one a [jobs:1] run would have
   raised, so failure behaviour is deterministic across job counts. *)
let init ~jobs n f =
  if n < 0 then invalid_arg "Parallel.init: negative count";
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then Array.init n f
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (match f i with v -> Ok v | exception e -> Error e);
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    (* explicit ascending scan: the lowest index decides, not map order *)
    for i = 0 to n - 1 do
      match results.(i) with Some (Error e) -> raise e | Some (Ok _) | None -> ()
    done;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error _) | None -> invalid_arg "Parallel.init: missing result")
      results
  end

(* [map ~jobs f items] maps [f] over [items] on up to [jobs] domains,
   preserving order. *)
let map ~jobs f items =
  let arr = Array.of_list items in
  Array.to_list (init ~jobs (Array.length arr) (fun i -> f arr.(i)))
