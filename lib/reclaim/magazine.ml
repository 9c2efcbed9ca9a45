(* Per-domain node magazines: fixed-size free-lists layered over EBR so
   the hot path stops allocating.

   The design follows "Concurrent Fixed-Size Allocation and Free in
   Constant Time" (PAPERS.md) in the shape popularised by slab-allocator
   magazines: each domain owns a private free-list — its magazine — that
   it pushes and pops with plain field operations: no atomics, no
   contention. Magazines exchange *whole chains* with the wait-free slab
   store of {!Slab} in O(1): a full magazine is freed into the domain's
   active slab as one chain, an empty one is refilled with one chain,
   and only a slab boundary costs a single cross-domain CAS attempt
   (docs/PERF.md, "Allocator").

   Layering over EBR: the structure's pop retires the node as before;
   when the grace period expires, the EBR destructor hands the node to
   [recycle] under the retiring thread's id instead of dropping it to
   the GC. At that moment no reader can still hold a reference (that is
   exactly what the grace period guarantees), so the next [alloc] may
   mutate the node's fields for its second life. The reclamation
   checker audits this hand-off: [Reclaim_checker.note_recycle]
   verifies the node's previous life completed the full
   alloc -> ... -> reclaim cycle, so a magazine can never silently mask
   a lifetime bug.

   Thread-safety contract: [alloc] and [recycle] for a given [tid] must
   only run on the thread (fiber) that owns that id — the same contract
   EBR's per-slot operations already impose, and EBR destructors run on
   the retiring thread, so routing them into [recycle ~tid] with the
   retiring tid satisfies it by construction. *)

[@@@progress "lock_free"]

(* Process-wide tallies across every magazine instance (defined first so
   the functor can feed them).

   The harness benchmarks structures through the opaque
   {!Sec_spec.Stack_intf.S} face, which hides the magazine inside the
   functor; these global counters are how `sec_bench --emit-json`
   reports a magazine hit rate anyway. Cells are per-thread (written
   only by their owning thread; the harness reads them after joining
   the workers, which provides the ordering), and [reset] brackets one
   measured run. *)
module Global = struct
  type cell = {
    mutable hits : int;
        [@plain_ok "one cell per thread id; read only after worker join"]
    mutable misses : int; [@plain_ok "see [hits]"]
    mutable recycled : int; [@plain_ok "see [hits]"]
  }

  (* Sized past any topology in lib/sim/topology.ml; ids are masked so a
     stray tid can never escape the array. *)
  let cells = Array.init 256 (fun _ -> { hits = 0; misses = 0; recycled = 0 })
  let cell tid = cells.(tid land 255)

  let note_hit tid =
    let c = cell tid in
    c.hits <- c.hits + 1

  let note_miss tid =
    let c = cell tid in
    c.misses <- c.misses + 1

  let note_recycled tid =
    let c = cell tid in
    c.recycled <- c.recycled + 1

  type snapshot = { hits : int; misses : int; recycled : int }

  let reset () =
    Array.iter
      (fun (c : cell) ->
        c.hits <- 0;
        c.misses <- 0;
        c.recycled <- 0)
      cells

  let snapshot () =
    Array.fold_left
      (fun (acc : snapshot) (c : cell) ->
        {
          hits = acc.hits + c.hits;
          misses = acc.misses + c.misses;
          recycled = acc.recycled + c.recycled;
        })
      { hits = 0; misses = 0; recycled = 0 }
      cells

  let hit_rate (s : snapshot) =
    let total = s.hits + s.misses in
    if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
end

(* Outside {!Make} so every instantiation shares one nominal type (and
   interfaces can name it without fixing the substrate). *)
type stats = {
  hits : int;  (** allocations served from a magazine or the slab store *)
  misses : int;  (** allocations that fell through to fresh nodes *)
  recycled : int;  (** nodes returned by EBR destructors *)
  chain_puts : int;  (** full magazines freed into the slab store *)
  chain_gets : int;  (** chains adopted from the slab store *)
}

let empty_stats =
  { hits = 0; misses = 0; recycled = 0; chain_puts = 0; chain_gets = 0 }

module Make (P : Sec_prim.Prim_intf.S) = struct
  module Sl = Slab.Make (P)

  type 'a slot = {
    mutable free : 'a list;
        [@plain_ok
          "the whole slot record is private to its owning thread; \
           cross-thread traffic goes through the slab store"]
    mutable count : int; [@plain_ok "thread-private, see [free]"]
    (* Per-thread tallies, folded by [stats]. *)
    mutable hits : int; [@plain_ok "thread-private, see [free]"]
    mutable misses : int; [@plain_ok "thread-private, see [free]"]
    mutable recycled : int; [@plain_ok "thread-private, see [free]"]
    mutable chain_puts : int; [@plain_ok "thread-private, see [free]"]
    mutable chain_gets : int; [@plain_ok "thread-private, see [free]"]
  }

  type 'a t = {
    slots : 'a slot array;
    capacity : int; (* nodes per magazine = the slab store's chain length *)
    slab : 'a Sl.t; (* the slow path: whole chains in and out *)
  }

  let fresh_slot () =
    {
      free = [];
      count = 0;
      hits = 0;
      misses = 0;
      recycled = 0;
      chain_puts = 0;
      chain_gets = 0;
    }

  let default_capacity = 64

  let create ?(capacity = default_capacity) ?(max_threads = 64) () =
    if capacity < 1 then
      invalid_arg "Magazine.create: capacity must be at least 1";
    {
      slots = Array.init max_threads (fun _ -> fresh_slot ());
      capacity;
      slab = Sl.create ~chain_len:capacity ~max_threads ();
    }

  let capacity t = t.capacity

  (* [alloc t ~tid] pops the calling thread's magazine; on empty it
     takes one whole chain from the slab store. [None] means the caller
     must construct a fresh node (and should say so with
     [P.note_alloc]). *)
  let alloc t ~tid =
    let s = t.slots.(tid) in
    match s.free with
    | n :: rest ->
        s.free <- rest;
        s.count <- s.count - 1;
        s.hits <- s.hits + 1;
        Global.note_hit tid;
        Some n
    | [] -> (
        match Sl.alloc_chain t.slab ~tid with
        | Some (len, n :: chain) ->
            s.free <- chain;
            s.count <- len - 1;
            s.chain_gets <- s.chain_gets + 1;
            s.hits <- s.hits + 1;
            Global.note_hit tid;
            Some n
        | Some (_, []) | None ->
            s.misses <- s.misses + 1;
            Global.note_miss tid;
            None)

  (* [recycle t ~tid n] pushes [n] onto the calling thread's magazine;
     a full magazine is first freed wholesale into the slab store, where
     another thread's allocation stream can adopt it once its slab is
     parked. *)
  let recycle t ~tid n =
    let s = t.slots.(tid) in
    s.recycled <- s.recycled + 1;
    Global.note_recycled tid;
    if s.count >= t.capacity then begin
      let full = s.free in
      s.free <- [];
      s.count <- 0;
      s.chain_puts <- s.chain_puts + 1;
      Sl.free_chain t.slab ~tid (t.capacity, full)
    end;
    s.free <- n :: s.free;
    s.count <- s.count + 1

  (* ---------------------------------------------------------------- *)
  (* Introspection                                                     *)

  type nonrec stats = stats = {
    hits : int;
    misses : int;
    recycled : int;
    chain_puts : int;
    chain_gets : int;
  }

  let stats t =
    Array.fold_left
      (fun (acc : stats) (s : _ slot) ->
        {
          hits = acc.hits + s.hits;
          misses = acc.misses + s.misses;
          recycled = acc.recycled + s.recycled;
          chain_puts = acc.chain_puts + s.chain_puts;
          chain_gets = acc.chain_gets + s.chain_gets;
        })
      empty_stats t.slots

  (* Tallies of the slab store behind the magazines. *)
  let slab_stats t = Sl.stats t.slab

  let hit_rate t =
    let s = stats t in
    let total = s.hits + s.misses in
    if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
end
