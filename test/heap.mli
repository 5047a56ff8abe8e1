(** Growable binary min-heap of integer payloads keyed by integer
    priority: the reference ordering the router's [Route.Bqueue] dial
    queue is property-tested against in [test_route]. *)

type t

val create : ?capacity:int -> unit -> t
val is_empty : t -> bool
val size : t -> int
val push : t -> prio:int -> value:int -> unit

(** [pop h] removes and returns the (priority, value) pair with the
    smallest priority.
    @raise Invalid_argument on an empty heap. *)
val pop : t -> int * int

val clear : t -> unit
