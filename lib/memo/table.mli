(** Concurrent answer table: sharded-lock buckets over canonical call
    keys, bounded capacity with least-recently-used eviction.  Shards
    and buckets are keyed by the key's byte code ({!Canon.key}), so a
    lookup hashes and compares one short string and prints nothing.

    Concurrency design (after the sharded table spaces of Areias &
    Rocha): a key hashes to one of [shards] buckets, each bucket is an
    ordinary hash table behind its own [Mutex], and the global
    hit/miss/insert/duplicate/eviction counters are [Atomic]s updated
    outside the locks — domains touching different shards never
    contend, and the counters stay exact under any interleaving.

    Inserts are {e variant-checking}: an answer already present in the
    entry (up to variable renaming, via {!Canon.answer_text}) is
    counted as a duplicate and dropped, so two domains computing the
    same key concurrently converge on one answer set.

    Capacity is a global word budget split evenly across shards; a
    shard over its slice evicts its least-recently-stamped entries
    (stamps come from one global atomic clock, so eviction is LRU-ish
    rather than strict LRU — cheap, and unaffected by races on the
    clock). [capacity_words = 0] disables eviction. *)

type t

val create : ?shards:int -> capacity_words:int -> unit -> t
(** Default 16 shards (rounded up to at least 1). *)

val find : t -> Canon.key -> Canon.answer list option
(** Answer set for a key, in first-insert order; counts a hit or a
    miss and refreshes the entry's LRU stamp. *)

val insert : t -> Canon.key -> Canon.answer list -> int
(** Merge answers into the key's entry (creating it if needed),
    dropping variants of answers already present.  Returns how many
    answers were actually added; may trigger eviction of {e other}
    entries in the same shard. *)

val mem : t -> Canon.key -> bool
(** Lookup without touching counters or stamps. *)

val fold : t -> (Canon.key -> Canon.answer list -> 'acc -> 'acc) -> 'acc -> 'acc
(** [fold t f init] folds [f key answers acc] over every live
    entry, answers in first-insert order, holding one shard lock at a
    time.  Entry order is arbitrary (shard/hash order) — sort the
    result if determinism matters.  Counters and stamps are not
    touched; this is the snapshot walk, not a lookup. *)

type totals = {
  hits : int;
  misses : int;
  inserts : int;  (** answers added *)
  duplicates : int;  (** answers dropped by variant checking *)
  evictions : int;  (** entries evicted *)
  entries : int;  (** live entries right now *)
  words : int;  (** live size right now *)
}

val totals : t -> totals
val hit_rate : totals -> float
(** hits / (hits + misses), 0 when idle. *)
