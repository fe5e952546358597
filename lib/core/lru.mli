(** Bounded least-recently-used table: a hash table plus an intrusive
    doubly-linked recency list, so every operation is O(1) (amortized
    for the hash table) and eviction never scans.

    Insertion and eviction are separate steps: {!add} never drops
    anything, and the owner calls {!trim} at its own trim point — e.g.
    only after a batch of just-inserted results has been read back, so
    a cap smaller than one batch cannot evict a result before its
    caller sees it.  {!trim} drops least-recently-used entries until
    the table is back at its cap, and its return value is what owners
    feed their telemetry counters.

    No locking: each owner serializes access under its own mutex. *)

type ('k, 'v) t

val create : ?cap:int -> unit -> ('k, 'v) t
(** [cap] bounds the table after each {!trim}; omitted, the table is
    unbounded and {!trim} is a no-op.  [cap < 1] raises
    [Invalid_argument]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Look up a key and mark it most recently used. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Look up a key without touching its recency. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership; does not touch recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert, or replace the value of a present key; either way the key
    becomes most recently used.  Never evicts, and a replacement is not
    an eviction. *)

val trim : ('k, 'v) t -> int
(** Drop least-recently-used entries beyond the cap; returns how many
    were dropped (always 0 when unbounded). *)

val length : ('k, 'v) t -> int

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
(** Fold over the entries, most recently used first; does not touch
    recency. *)

val evictions : ('k, 'v) t -> int
(** Entries dropped by {!trim} over the table's lifetime. *)
