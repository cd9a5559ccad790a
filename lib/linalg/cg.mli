(** Conjugate gradient over an abstract matvec operator.

    Used internally by simulated vertices (which have unlimited local
    computation) and as a reference solver in tests.

    Operators are in place: [matvec x dst] writes [A x] and
    [precond r dst] writes the preconditioned residual into [dst].  The
    iteration runs over preallocated workspaces, so each iteration
    allocates nothing. *)

type result = {
  solution : Vec.t;
  iterations : int;
  residual_norm : float; (* final ||b - A x||_2 *)
  converged : bool;
}

val solve_preconditioned :
  ?tol:float ->
  matvec:(Vec.t -> Vec.t -> unit) ->
  precond:(Vec.t -> Vec.t -> unit) ->
  b:Vec.t ->
  unit ->
  result
(** Preconditioned CG for an SPD (or PSD with [b] in the range)
    operator; [precond] applies an approximation of [A^+] (a plain copy
    gives unpreconditioned CG), started from zero.  Stops when
    [||r||_2 <= tol * ||b||_2] or after [10 * dim] iterations. *)
