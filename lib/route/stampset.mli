(** Generation-stamped set of small integers.

    [mem]/[add]/[clear] are O(1): membership is a stamp comparison
    against the current generation, and clearing just bumps the
    generation. Members are also kept in an insertion-ordered vector so
    the set can be iterated without touching the (large, mostly stale)
    stamp array — exactly what the router needs for the per-net tree
    node set, which previously was an [int list] with [List.mem]
    membership tests, quadratic in tree size. *)

type t

(** [create n] covers the domain [0 .. n-1]. *)
val create : int -> t

(** O(1); keeps the stamp array, drops the members. *)
val clear : t -> unit

val mem : t -> int -> bool

(** [add t x] inserts [x] unless already present. *)
val add : t -> int -> unit

val cardinal : t -> int

(** [items t] is the set's own member store: its first [cardinal t]
    entries are the members in insertion order. Valid until the next
    [add] or [clear]; for loops that must not allocate a closure. *)
val items : t -> int array

(** [iter t f] applies [f] to every member in insertion order. *)
val iter : t -> (int -> unit) -> unit
