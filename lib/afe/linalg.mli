(** Small dense linear algebra over floats: Gaussian elimination with
    partial pivoting for the regression AFE's (d+1)×(d+1) normal
    equations (paper §5.3, eq. 1). *)

exception Singular

val solve : float array array -> float array -> float array
(** [solve a b] solves A·x = b; inputs are unmodified.
    @raise Singular when the pivot falls below 1e-12. *)
