(** Blelloch–Wei-style concurrent fixed-size allocation: per-domain
    active slabs carved from larger chunks, constant-time alloc and
    free, and no cross-domain CAS on the common path.

    This is the refill layer below {!Magazine}: magazines exchange
    whole chains with it, a slab holds [slab_chains] chains, and every
    shared-state transfer is a SINGLE compare_and_set attempt — a lost
    park keeps the slab local until the next boundary, a lost adopt
    degrades to fresh (bump) allocation — so every path is wait-free.
    See docs/PERF.md ("Allocator"). *)

(** Process-wide slab tallies, mirrored on {!Magazine.Global}:
    per-thread cells, [reset] brackets a measured run, [snapshot]
    sums. *)
module Global : sig
  type snapshot = {
    parks : int;  (** full slabs parked on the shared partial stack *)
    park_fails : int;  (** park CAS attempts that lost (slab kept local) *)
    adopts : int;  (** parked slabs adopted by a dry domain *)
    adopt_fails : int;  (** adopt CAS attempts that lost (treated as miss) *)
    chain_puts : int;  (** chains freed into slabs *)
    chain_gets : int;  (** chains taken out of slabs *)
    fresh : int;  (** misses: the caller constructed fresh nodes *)
    pooled : int;  (** nodes currently held inside slabs (gauge) *)
    capacity : int;  (** node capacity of every slab created (gauge) *)
  }

  val reset : unit -> unit
  val snapshot : unit -> snapshot

  (** Every cross-domain CAS the slab layer issued (park + adopt
      attempts, successes and losses) — the number `sec_bench alloc`
      reports. *)
  val cas_attempts : snapshot -> int

  val cas_retries : snapshot -> int

  (** [pooled / capacity], 0 when no slab exists. *)
  val occupancy : snapshot -> float
end

(** Per-instance tallies, shared nominally across every {!Make}
    instantiation (like {!Magazine.stats}). *)
type stats = {
  parks : int;
  park_fails : int;
  adopts : int;
  adopt_fails : int;
  chain_puts : int;
  chain_gets : int;
  fresh : int;
  pooled : int;  (** nodes currently inside this instance's slabs *)
  parked_slabs : int;
}

(** All zero: what a structure without a slab store reports. *)
val empty_stats : stats

module Make (_ : Sec_prim.Prim_intf.S) : sig
  (** GC-heap slab store over an arbitrary node type. Chains are the
      [(length, nodes)] pairs the magazine already trades in. *)
  type 'a t

  (** [chain_len] must equal the magazine capacity above this store;
      [slab_chains] chains make one slab. Single-threaded set-up. *)
  val create :
    ?chain_len:int -> ?slab_chains:int -> ?max_threads:int -> unit -> 'a t

  val chain_len : 'a t -> int

  (** O(1): pop the calling domain's active slab; when dry, ONE adopt
      CAS attempt; [None] means construct fresh nodes (wait-free
      miss). *)
  val alloc_chain : 'a t -> tid:int -> (int * 'a list) option

  (** O(1): push onto the calling domain's active slab (plain writes);
      at a full-slab boundary, ONE park CAS attempt. *)
  val free_chain : 'a t -> tid:int -> int * 'a list -> unit

  (** Node-granular face over the same store (a thread-private loose
      list exchanged with the active slab in whole chains). *)
  val alloc : 'a t -> tid:int -> 'a option

  val free : 'a t -> tid:int -> 'a -> unit

  type nonrec stats = stats = {
    parks : int;
    park_fails : int;
    adopts : int;
    adopt_fails : int;
    chain_puts : int;
    chain_gets : int;
    fresh : int;
    pooled : int;
    parked_slabs : int;
  }

  val stats : 'a t -> stats
end
