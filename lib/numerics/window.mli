(** Interpolation window (kernel) functions for NuFFT gridding.

    Each kernel is an even function [psi : float -> float] supported on
    [-W/2, W/2] where [W] is the interpolation window width in (oversampled)
    grid units. The continuous Fourier transform [psi_hat] is needed for
    the NuFFT's apodization step; it is analytic (and exact) for
    Kaiser-Bessel and B-spline, and computed by quadrature for Gaussian,
    Sinc and the exponential-of-semicircle kernel, which have no closed
    form once truncated to the window support.

    The choice of window is application-specific (paper, §II-B); all four
    families mentioned in the paper are implemented, plus the
    "exponential of semicircle" (ES) kernel of Barnett, Magland &
    af Klinteberg (FINUFFT), whose width is cheaply derivable from a
    requested accuracy — see {!for_tolerance}. *)

type t =
  | Kaiser_bessel of float  (** shape parameter beta *)
  | Gaussian of float       (** standard deviation sigma, in grid units *)
  | Bspline                 (** cubic B-spline dilated to the window width *)
  | Sinc                    (** truncated sinc *)
  | Exp_semicircle of float
      (** shape parameter beta:
          [psi(t) = exp (beta (sqrt (1 - (2t/W)^2) - 1))] *)

val beatty_beta : width:int -> sigma:float -> float
(** Kaiser-Bessel shape parameter from Beatty, Nishimura & Pauly (2005) for
    oversampling factor [sigma] (1 < sigma <= 2) and window width [width]:
    [pi * sqrt ((W/sigma)^2 * (sigma - 0.5)^2 - 0.8)]. This is the setting
    that lets sigma < 2 retain accuracy by widening W (paper §II-B). *)

val default_kaiser_bessel : width:int -> sigma:float -> t
(** Kaiser-Bessel with the Beatty beta. *)

val es_beta : width:int -> sigma:float -> float
(** Near-optimal ES shape parameter (Barnett et al. 2019):
    [0.97 * pi * W * (1 - 1/(2 sigma))]. Raises for [sigma <= 1] or
    [width < 2]. *)

val default_exp_semicircle : width:int -> sigma:float -> t
(** Exponential of semicircle with the {!es_beta} shape parameter. *)

val default_gaussian : width:int -> t
(** Gaussian whose tail at the truncation edge [W/2] is ~1%. *)

val eval : t -> width:int -> float -> float
(** [eval kernel ~width t] is psi(t); zero for [|t| >= width/2]. The peak
    value psi(0) is normalised to 1 for Kaiser-Bessel, Gaussian, Sinc and
    Exp_semicircle; the B-spline uses its conventional partition-of-unity
    normalisation. *)

val staged : t -> width:int -> float -> float
(** [staged kernel ~width] is {!eval} [kernel ~width] with the per-kernel
    constants (the Kaiser-Bessel normaliser [I0(beta)]) computed once, at
    partial application. Every point evaluates the same float expression
    as {!eval}, so the two agree bit for bit; table builds stage once and
    evaluate thousands of points. *)

val ft : t -> width:int -> float -> float
(** [ft kernel ~width f] is the continuous Fourier transform
    [integral psi(t) e^{-2 pi i f t} dt] (real, since psi is even) at
    frequency [f] in cycles per grid unit. *)

val ft_numeric : ?panels:int -> t -> width:int -> float -> float
(** Quadrature evaluation of the same transform (composite Simpson) —
    used to cross-check the analytic forms in tests and as the
    implementation for truncated Gaussian, Sinc and ES. [panels] defaults
    to [max 2048 (256 * width)] so wide kernels keep their panel density;
    an explicit odd count is rounded up to even (Simpson needs an even
    panel count). Raises for [panels < 2]. *)

(** {2 Tolerance-driven geometry}

    FINUFFT-class libraries take a requested relative tolerance and derive
    the kernel geometry from it. The ES aliasing error decays like
    [exp (-pi W sqrt (1 - 1/sigma))] — at [sigma = 2] roughly one decimal
    digit per unit of width ([W ~ log10(1/tol) + 1]) — and Kaiser-Bessel
    at the Beatty beta matches the same exponential rate, so one width law
    serves both families. The measured contract (observed relative-L2
    error vs the exact NuDFT <= 10x the request) is asserted over the
    full sweep by [test_accuracy.ml]. *)

(** Kernel family selector for {!for_tolerance}. *)
type family = KB | ES

val family_name : family -> string
(** ["kaiser-bessel"] / ["es"]. *)

val family_of_string : string -> family option
(** Accepts ["es"], ["exp-semicircle"], ["kb"], ["kaiser-bessel"], ... *)

val width_for_tolerance :
  ?family:family -> tol:float -> sigma:float -> unit -> int
(** Window width achieving [tol] at oversampling [sigma]:
    [ceil (ln (1/tol) / (pi sqrt (1 - 1/sigma))) + 1], clamped to
    [2, 16]. Default family ES. Raises for [tol] outside (0, 1) or
    [sigma <= 1]; tolerances below 1e-12 saturate. *)

val for_tolerance : ?family:family -> tol:float -> sigma:float -> unit -> t * int
(** [for_tolerance ~family ~tol ~sigma ()] is the kernel (with its shape
    parameter set for the derived width) and the width itself. *)

val lut_for_tolerance : tol:float -> int
(** Weight-table oversampling [L] needed so the nearest-address LUT's
    rounding floor (measured ~0.36/L) stays below [tol]: the next power
    of two >= [0.5 / tol], clamped to [512, 262144]. *)

val default_width : sigma:float -> int
(** Plan default width when the caller fixes only [sigma]: holds the
    Beatty-beta argument at its (w = 6, sigma = 2) reference —
    [ceil (4.5 sigma / (sigma - 0.5))] — so narrower oversampling widens
    the window instead of silently losing accuracy. [sigma = 2] gives the
    historical default 6. *)

val pp : Format.formatter -> t -> unit

val name : t -> string
(** Family name without parameters — stable across widths, used in cache
    keys and bench rows. *)
