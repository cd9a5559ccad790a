(** 1-self-concordant barrier functions per coordinate domain (Section 4.1).

    For [dom(x_i) = (l_i, u_i)] with at least one bound finite:
    - [l] finite, [u = +inf]: log barrier [-log (x - l)];
    - [l = -inf], [u] finite: log barrier [-log (u - x)];
    - both finite: the trigonometric barrier [-log cos (a x + b)] with
      [a = pi / (u - l)], [b = -pi/2 * (u + l)/(u - l)]. *)

type t

val make : lo:float -> hi:float -> t
(** @raise Invalid_argument if both bounds are infinite or [lo >= hi]. *)

val lo : t -> float
val hi : t -> float

val contains : t -> float -> bool
(** Strict interior membership. *)

val value : t -> float -> float
val dphi : t -> float -> float
(** First derivative [phi']. *)

val ddphi : t -> float -> float
(** Second derivative [phi'']; always positive on the domain. *)
