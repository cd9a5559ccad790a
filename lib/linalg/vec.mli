(** Dense vectors as float arrays.

    Thin helpers; all operations allocate a fresh result unless suffixed
    [_inplace].  Dimensions are checked with [Invalid_argument]. *)

type t = float array

val create : int -> float -> t
val zeros : int -> t
val ones : int -> t
val init : int -> (int -> float) -> t
val basis : int -> int -> t
(** [basis n i] is [e_i] in dimension [n]. *)

val copy : t -> t
val dim : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val neg : t -> t
val mul : t -> t -> t
(** Coordinate-wise product. *)

val div : t -> t -> t
(** Coordinate-wise quotient. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

(** {2 In-place kernels}

    Allocation-free variants writing into a caller-owned buffer with the
    same elementwise arithmetic (hence identical rounding) as their
    allocating counterparts.  Destinations may alias inputs. *)

val sub_into : t -> t -> t -> unit
(** [sub_into x y dst] performs [dst <- x - y]. *)

val scale_into : float -> t -> t -> unit
(** [scale_into a x dst] performs [dst <- a*x]. *)

val mul_into : t -> t -> t -> unit
(** [mul_into x y dst] performs [dst <- x .* y] coordinate-wise. *)

val axpby_into : float -> float -> t -> t -> unit
(** [axpby_into a b z d] performs [d <- a*d + b*z], rounding exactly as
    [add (scale a d) (scale b z)]. *)

val mean_center_into : t -> t -> unit
(** [mean_center_into x dst] writes the mean-centered [x] into [dst]. *)

val dot : t -> t -> float
val norm2 : t -> float
val norm_inf : t -> float
val norm1 : t -> float
val dist2 : t -> t -> float

val weighted_norm : t -> t -> float
(** [weighted_norm w x] is [sqrt (sum_i w_i x_i^2)]; requires [w_i >= 0]. *)

val sum : t -> float
val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t

val mean_center : t -> t
(** Subtract the mean: projection onto the orthogonal complement of [1]. *)

val clamp : lo:t -> hi:t -> t -> t
(** Coordinate-wise median of [lo], [x], [hi] (the paper's [MEDIAN]). *)

val max_elt : t -> float
