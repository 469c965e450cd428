type t =
  | Kaiser_bessel of float
  | Gaussian of float
  | Bspline
  | Sinc
  | Exp_semicircle of float

let beatty_beta ~width ~sigma =
  if sigma <= 1.0 then invalid_arg "Window.beatty_beta: sigma must be > 1";
  let w = float_of_int width in
  let x = (w /. sigma) *. (w /. sigma) *. (sigma -. 0.5) *. (sigma -. 0.5) in
  let arg = x -. 0.8 in
  if arg <= 0.0 then invalid_arg "Window.beatty_beta: W too small for sigma";
  Float.pi *. sqrt arg

let default_kaiser_bessel ~width ~sigma =
  Kaiser_bessel (beatty_beta ~width ~sigma)

(* Barnett, Magland & af Klinteberg (2019): the near-optimal ES shape
   parameter is beta = gamma * pi * W * (1 - 1/(2 sigma)) with gamma
   slightly below 1 to absorb the finite-W truncation. *)
let es_beta ~width ~sigma =
  if sigma <= 1.0 then invalid_arg "Window.es_beta: sigma must be > 1";
  if width < 2 then invalid_arg "Window.es_beta: width must be >= 2";
  0.97 *. Float.pi *. float_of_int width *. (1.0 -. (1.0 /. (2.0 *. sigma)))

let default_exp_semicircle ~width ~sigma =
  Exp_semicircle (es_beta ~width ~sigma)

(* sigma such that psi(W/2) = exp(-1/(2*0.33^2)) ~ 1%. *)
let default_gaussian ~width = Gaussian (0.33 *. (float_of_int width /. 2.0))

let sinc x = if x = 0.0 then 1.0 else sin (Float.pi *. x) /. (Float.pi *. x)

(* Cubic B-spline on its natural support [-2, 2]. *)
let bspline3 u =
  let a = Float.abs u in
  if a >= 2.0 then 0.0
  else if a >= 1.0 then
    let d = 2.0 -. a in
    d *. d *. d /. 6.0
  else (4.0 -. (6.0 *. a *. a) +. (3.0 *. a *. a *. a)) /. 6.0

(* The kernel's per-point expression with everything that depends only
   on (kernel, width) hoisted: the Kaiser-Bessel normaliser [I0(beta)]
   is evaluated once per staging instead of once per point. Each point
   still computes the very same float expression, so a staged evaluator
   and [eval] agree bit for bit. *)
let staged kernel ~width =
  let half = float_of_int width /. 2.0 in
  let psi =
    match kernel with
    | Kaiser_bessel beta ->
        let i0_beta = Bessel.i0 beta in
        fun t ->
          let u = t /. half in
          Bessel.i0 (beta *. sqrt (1.0 -. (u *. u))) /. i0_beta
    | Gaussian sigma -> fun t -> exp (-.(t *. t) /. (2.0 *. sigma *. sigma))
    | Bspline -> fun t -> bspline3 (4.0 *. t /. float_of_int width)
    | Sinc -> sinc
    | Exp_semicircle beta ->
        fun t ->
          let u = t /. half in
          exp (beta *. (sqrt (1.0 -. (u *. u)) -. 1.0))
  in
  fun t -> if Float.abs t >= half then 0.0 else psi t

let eval kernel ~width t = staged kernel ~width t

(* Simpson panel count: the default scales with the window width so wide
   kernels keep the same panel density per grid unit (256 panels per unit
   of half-width, floor 2048) rather than losing quadrature digits. *)
let default_panels width = max 2048 (256 * width)

let ft_numeric ?panels kernel ~width f =
  (* psi is even: FT = 2 * integral_0^{W/2} psi(t) cos(2 pi f t) dt,
     composite Simpson. *)
  let half = float_of_int width /. 2.0 in
  let n =
    match panels with
    | None -> default_panels width
    | Some p ->
        if p < 2 then invalid_arg "Window.ft_numeric: panels must be >= 2";
        if p land 1 = 1 then p + 1 else p
  in
  let h = half /. float_of_int n in
  let psi = staged kernel ~width in
  let g t = psi t *. cos (2.0 *. Float.pi *. f *. t) in
  let sum = ref (g 0.0 +. g half) in
  for j = 1 to n - 1 do
    let w = if j land 1 = 1 then 4.0 else 2.0 in
    sum := !sum +. (w *. g (float_of_int j *. h))
  done;
  2.0 *. (!sum *. h /. 3.0)

(* sinh(sqrt z)/sqrt z extended continuously through z = 0 to
   sin(sqrt(-z))/sqrt(-z). *)
let sinhc_ext z =
  if Float.abs z < 1e-12 then 1.0 +. (z /. 6.0)
  else if z > 0.0 then
    let s = sqrt z in
    sinh s /. s
  else
    let s = sqrt (-.z) in
    sin s /. s

let ft kernel ~width f =
  let w = float_of_int width in
  match kernel with
  | Kaiser_bessel beta ->
      (* Exact: the kernel is compactly supported so the classical pair
         holds without truncation error. *)
      let piwf = Float.pi *. w *. f in
      w *. sinhc_ext ((beta *. beta) -. (piwf *. piwf)) /. Bessel.i0 beta
  | Bspline ->
      (* psi(t) = b3(4t/W): FT = (W/4) * sinc^4 (W f / 4), exact. *)
      let s = sinc (w *. f /. 4.0) in
      w /. 4.0 *. (s *. s *. s *. s)
  | Gaussian _ | Sinc | Exp_semicircle _ ->
      (* Truncation (Gaussian, Sinc) or the lack of a closed form (ES)
         rules out an analytic pair; quadrature is exact for the
         truncated kernel up to Simpson error. *)
      ft_numeric kernel ~width f

(* ------------------------------------------------------------------ *)
(* Tolerance-driven geometry.

   The ES aliasing error decays like exp(-pi W sqrt(1 - 1/sigma))
   (Barnett et al., thm 4.2 regime); at sigma = 2 this is the familiar
   "one digit per unit width" law W ~ log10(1/tol) + 1. Kaiser-Bessel at
   the Beatty beta obeys the same exponential rate, so one width law
   serves both families. *)

type family = KB | ES

let family_name = function KB -> "kaiser-bessel" | ES -> "es"

let family_of_string s =
  match String.lowercase_ascii s with
  | "es" | "exp-semicircle" | "exponential-of-semicircle" -> Some ES
  | "kb" | "kaiser-bessel" | "kaiser_bessel" -> Some KB
  | _ -> None

let min_tolerance = 1e-12

let check_tol tol =
  if not (Float.is_finite tol) || tol <= 0.0 || tol >= 1.0 then
    invalid_arg "Window: tol must lie in (0, 1)"

let width_for_tolerance ?(family = ES) ~tol ~sigma () =
  check_tol tol;
  if sigma <= 1.0 then invalid_arg "Window.width_for_tolerance: sigma must be > 1";
  ignore family;
  let tol = Float.max tol min_tolerance in
  let rate = Float.pi *. sqrt (1.0 -. (1.0 /. sigma)) in
  let w = int_of_float (Float.ceil (log (1.0 /. tol) /. rate)) + 1 in
  max 2 (min 16 w)

let for_tolerance ?(family = ES) ~tol ~sigma () =
  let width = width_for_tolerance ~family ~tol ~sigma () in
  let kernel =
    match family with
    | ES -> default_exp_semicircle ~width ~sigma
    | KB -> default_kaiser_bessel ~width ~sigma
  in
  (kernel, width)

(* The nearest-address LUT rounds each |distance| to a multiple of 1/L,
   contributing a weight error ~ |psi'|/(2L) per tap; the table
   oversampling must therefore shrink with the tolerance or the LUT floor
   swamps the kernel's own accuracy. Measured floor ~ 0.36/L (accuracy
   sweep, both families), so targeting L >= 0.5/tol keeps the floor below
   ~0.7 tol; power-of-two for the hardware models' benefit, capped at
   2^18 (the densest table, w = 8 at tol = 1e-6, is then 1M entries /
   8 MiB and the floor ~1.4e-6 — still inside the 10x contract). *)
let lut_for_tolerance ~tol =
  check_tol tol;
  let tol = Float.max tol min_tolerance in
  let rec next_pow2 p target = if p >= target then p else next_pow2 (2 * p) target in
  let target = int_of_float (Float.ceil (0.5 /. tol)) in
  max 512 (min 262144 (next_pow2 1 target))

(* Hold the Beatty-beta argument at its (w = 6, sigma = 2) reference
   value: (w/sigma)(sigma - 0.5) = 4.5. Narrower oversampling then takes
   a wider window to keep the same shape parameter (paper SII-B), instead
   of a constant w = 6 that loses accuracy as sigma drops. *)
let default_width ~sigma =
  if sigma <= 1.0 then invalid_arg "Window.default_width: sigma must be > 1";
  max 2 (int_of_float (Float.ceil (4.5 *. sigma /. (sigma -. 0.5))))

let pp ppf = function
  | Kaiser_bessel beta -> Format.fprintf ppf "kaiser-bessel(beta=%g)" beta
  | Gaussian sigma -> Format.fprintf ppf "gaussian(sigma=%g)" sigma
  | Bspline -> Format.fprintf ppf "bspline3"
  | Sinc -> Format.fprintf ppf "sinc"
  | Exp_semicircle beta -> Format.fprintf ppf "exp-semicircle(beta=%g)" beta

let name = function
  | Kaiser_bessel _ -> "kaiser-bessel"
  | Gaussian _ -> "gaussian"
  | Bspline -> "bspline3"
  | Sinc -> "sinc"
  | Exp_semicircle _ -> "exp-semicircle"
