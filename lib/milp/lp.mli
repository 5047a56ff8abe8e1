(** Dense primal simplex for linear programs in the form

      minimize c.x  subject to  A x (<= | = | >=) b,  x >= 0.

    Rows are equilibrated (largest coefficient scaled to 1) first.
    Two-phase method (phase 1 minimises the artificial-variable sum, so
    no big-M constants pollute the reduced costs), largest-coefficient
    pivoting with a Bland's-rule fallback to guarantee termination.
    Intended for
    the window-sized MILPs of the detailed-placement formulation (hundreds
    of rows/columns); not a large-scale solver. *)

type relation = Le | Ge | Eq

type problem = {
  ncols : int;
  objective : float array;            (** length ncols *)
  rows : (float array * relation * float) list;
}

(** [IterLimit] also covers numerical breakdown: the returned point
    failed to satisfy the rows it was solved against. Its [values] are
    then not trustworthy. *)
type status = Optimal | Infeasible | Unbounded | IterLimit

type solution = {
  status : status;
  objective_value : float;
  values : float array;
}

(** [solve ?iter_limit p] minimises the objective. *)
val solve : ?iter_limit:int -> problem -> solution
