(** SEC — the Sharded Elimination and Combining stack of Singh, Metaxakis
    and Fatourou (PPoPP '26): a blocking, linearizable concurrent stack.

    Threads are sharded across aggregators; operations announced in the
    same *batch* eliminate pairwise through two fetch&increment counters,
    and each batch's survivors are applied to the shared stack by a single
    per-batch combiner with one CAS. See the implementation header for the
    pseudocode mapping. *)

(** A stack node. The batch protocol and its store link nodes through
    [next] while they are private to one combiner. *)
type 'a node = { mutable value : 'a; mutable next : 'a node option }

(** The backing store a batch protocol applies its combined batches to.
    [agg] is the caller's aggregator index and [patience] the number of
    failed CASes a caller retries at once before pacing. The operations
    run once per combined batch or lone operation, and may not
    allocate. *)
module type STORE = sig
  type 'a t

  val create : Config.t -> aggregators:int -> 'a t

  (** [append s ~agg ~patience bottom top] publishes the chain linked
      through [next] from [top] down to [bottom]; the store sets
      [bottom.next]. A lone push appends the one-node chain. *)
  val append : 'a t -> agg:int -> patience:int -> 'a node -> 'a node -> unit

  (** [detach s ~agg ~patience n] unlinks up to [n] nodes and returns
      their chain: walking fewer than [n] steps from its head visits only
      detached nodes, and ends at [None] once they run out. *)
  val detach : 'a t -> agg:int -> patience:int -> int -> 'a node option

  (** [pop_alone s ~agg] unlinks one node for an operation alone in its
      batch and returns its cell, or [None] on an empty store. *)
  val pop_alone : 'a t -> agg:int -> 'a node option
end

(** The stack's store: one shared top, the paper's stackTop.
    {!Sec_pool} keeps one per aggregator. *)
module Shared_top (_ : Sec_prim.Prim_intf.S) : sig
  include STORE

  (** The top node's value, revalidated under recycling. *)
  val peek : 'a t -> 'a option

  (** Nodes in the store; O(n), one snapshot of the top. *)
  val depth : 'a t -> int
end

(** The batch protocol — aggregators, announcing, freezing (probe gate,
    extension window, capacity clamp, lone-batch reuse), elimination and
    combining — over any backing store. [Make] is this with the stack's
    single shared top; {!Sec_pool.Make} with one top per aggregator. *)
module Batched (_ : Sec_prim.Prim_intf.S) (S : STORE) : sig
  type 'a t

  val create_with : config:Config.t -> ?max_threads:int -> unit -> 'a t
  val push : 'a t -> tid:int -> 'a -> unit
  val pop : 'a t -> tid:int -> 'a option
  val store : 'a t -> 'a S.t
end

module Make (_ : Sec_prim.Prim_intf.S) : sig
  include Sec_spec.Stack_intf.S

  (** [create_with ~config ~max_threads ()] — full control over sharding,
      freezer backoff and statistics collection. [create] uses
      {!Config.default}. *)
  val create_with : config:Config.t -> ?max_threads:int -> unit -> 'a t

  (** Batch statistics accumulated so far ({!Sec_stats.empty} unless the
      stack was created with [collect_stats = true]). *)
  val stats : 'a t -> Sec_stats.t

  val config : 'a t -> Config.t

  (** Aggregators announcements currently route to: the configured K
      under static sharding, the contention controller's current choice
      (between 1 and K) when the stack was created with
      [Config.adaptive]. *)
  val active_aggregators : 'a t -> int

  (** Node-magazine tallies for this stack (all zero unless created with
      [Config.recycle_nodes]). See {!Sec_reclaim.Magazine.Make.stats}. *)
  val magazine_stats : 'a t -> Sec_reclaim.Magazine.stats

  (** Fraction of node requests served without allocating; [0.] before
      any operation ran. *)
  val magazine_hit_rate : 'a t -> float

  (** Slab-store tallies behind the magazines (all zero unless created
      with [Config.recycle_nodes]). *)
  val slab_stats : 'a t -> Sec_reclaim.Slab.stats

  (** Number of nodes currently in the shared stack. O(n); takes a single
      snapshot of the top pointer — meant for tests and examples. *)
  val depth : 'a t -> int
end
