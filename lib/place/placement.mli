(** Placement database: per-instance lower-left coordinates and
    orientations over a row/site grid. Coordinates are mutable (detailed
    placement perturbs them in place); use [copy] to snapshot.

    Invariants maintained by the legaliser and required by the router and
    the vertical-M1 optimiser: x is a multiple of the site width, y is a
    multiple of the row height, and cells within a row do not overlap. *)

type t = {
  design : Netlist.Design.t;
  tech : Pdk.Tech.t;
  die : Geom.Rect.t;
  num_rows : int;
  sites_per_row : int;
  xs : int array;
  ys : int array;
  orients : Geom.Orient.t array;
  pin_table : pin_table;
      (** every master's pin bounding boxes under each orientation,
          built by [create] and [of_def] from [design] and shared by
          copies *)
}

and pin_table

(** [create design ~utilization] sizes a near-square die for the given row
    utilisation and returns a placement with every cell at the origin
    (illegal; run the global placer + legaliser next). *)
val create : Netlist.Design.t -> utilization:float -> t

val copy : t -> t

(** [assign dst src] copies coordinates and orientations of [src] into
    [dst] (same design). *)
val assign : t -> t -> unit

val num_instances : t -> int

(** [instance_rect t i] is the footprint of instance [i]. *)
val instance_rect : t -> int -> Geom.Rect.t

(** [pin_pos t pr] is the centre of the pin's bounding box in chip
    coordinates, the point used for HPWL and routing. *)
val pin_pos : t -> Netlist.Design.pin_ref -> Geom.Point.t

(** [pin_box_at t pr ~x ~y ~orient k] is [k lx ly hx hy], the bounding
    box pin [pr] has when its instance sits at origin [(x, y)] with
    [orient] — the instance's own placement or a candidate one. The box
    is read from [t.pin_table]; an empty box is passed unshifted, as
    {!Geom.Rect.shift} leaves it. *)
val pin_box_at :
  t -> Netlist.Design.pin_ref -> x:int -> y:int -> orient:Geom.Orient.t ->
  (int -> int -> int -> int -> 'a) -> 'a

(** [pin_shapes t pr] is the pin's placed physical shapes. *)
val pin_shapes : t -> Netlist.Design.pin_ref -> (Pdk.Layer.t * Geom.Rect.t) list

(** [pin_x_interval t pr] is the x-projection of the pin's placed bounding
    box (the interval whose overlap drives OpenM1 dM1 feasibility). *)
val pin_x_interval : t -> Netlist.Design.pin_ref -> Geom.Interval.t

val row_of_inst : t -> int -> int
val site_of_inst : t -> int -> int

(** [move t i ~site ~row ~orient] places instance [i]'s lower-left corner
    at the given site/row. No legality check. *)
val move : t -> int -> site:int -> row:int -> orient:Geom.Orient.t -> unit

(** [inside_die t i] is true when instance [i]'s footprint lies within the
    core area. *)
val inside_die : t -> int -> bool

(** [overlap_count t] is the number of pairs of cells whose footprints
    overlap strictly (0 for a legal placement). O(n log n). *)
val overlap_count : t -> int

(** [utilization t] is total cell area / core area. *)
val utilization : t -> float

val to_def : t -> Netlist.Def_io.placement
val of_def : Netlist.Design.t -> Netlist.Def_io.placement -> t
