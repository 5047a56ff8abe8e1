(** Fixed-width ASCII tables for experiment reports. *)

(** [render ~header ~rows] pads every column to its widest entry. *)
val render : header:string list -> rows:string list list -> string

(** Formatting helpers used across experiment tables. *)

val fi : int -> string

val f1 : float -> string
val f2 : float -> string
val f3 : float -> string

(** [pct a b] formats the relative change from [a] to [b] as e.g.
    ["(-6.4)"]. *)
val pct : float -> float -> string
