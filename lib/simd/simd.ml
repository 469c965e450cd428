module Cvec = Numerics.Cvec

type impl = Off | Scalar | Avx2 | Neon

external probe : unit -> int = "jigsaw_simd_probe"
external set_impl_c : int -> unit = "jigsaw_simd_set" [@@noalloc]

let impl_name = function
  | Off -> "off"
  | Scalar -> "scalar"
  | Avx2 -> "avx2"
  | Neon -> "neon"

(* C-side selector codes; Off never reaches C (the callers' [enabled]
   guard keeps every kernel on the OCaml path), so the C selector is
   parked on scalar when dispatch is off. *)
let code = function Off | Scalar -> 1 | Avx2 -> 2 | Neon -> 3

let available = match probe () with 3 -> Neon | 2 -> Avx2 | _ -> Scalar

(* A vector implementation the host cannot run degrades to scalar C, not
   to an illegal instruction. *)
let clamp = function
  | Off -> Off
  | Scalar -> Scalar
  | (Avx2 | Neon) as i -> if i = available then i else Scalar

let parse s =
  match String.lowercase_ascii (String.trim s) with
  | "off" | "0" | "none" -> Some Off
  | "scalar" -> Some Scalar
  | "avx2" -> Some Avx2
  | "neon" -> Some Neon
  | "" | "auto" -> Some available
  | _ -> None

let initial =
  match Sys.getenv_opt "JIGSAW_SIMD" with
  | None -> available
  | Some s -> (
      match parse s with
      | Some i -> clamp i
      | None ->
          Printf.eprintf
            "jigsaw: ignoring unknown JIGSAW_SIMD=%S (expected \
             off|scalar|avx2|neon|auto); auto-detected %s\n\
             %!"
            s (impl_name available);
          available)

let state = Atomic.make initial
let () = set_impl_c (code initial)
let active () = Atomic.get state
let enabled () = Atomic.get state <> Off

let set_active i =
  let i = clamp i in
  Atomic.set state i;
  set_impl_c (code i);
  i

let with_impl i f =
  let prev = active () in
  ignore (set_active i);
  Fun.protect ~finally:(fun () -> ignore (set_active prev)) f

(* Kernel externals. All [@@noalloc]: the stubs never allocate, raise or
   enter the runtime, so plain int/float arrays are safe to walk in
   place. Callers are responsible for (a) checking [enabled ()] first and
   (b) bounds — these are the innermost hot loops. *)

external spread : Cvec.t -> int array -> float array -> int -> Cvec.t -> unit
  = "jigsaw_simd_spread"
[@@noalloc]

external spread_band :
  Cvec.t -> int array -> float array -> int -> int array -> int -> int ->
  Cvec.t -> unit = "jigsaw_simd_spread_band_bc" "jigsaw_simd_spread_band"
[@@noalloc]

external gather :
  Cvec.t -> int array -> float array -> int -> Cvec.t -> int -> int -> unit
  = "jigsaw_simd_gather_bc" "jigsaw_simd_gather"
[@@noalloc]

type fft_tables = {
  n : int;
  swaps : int array;
  twiddles : float array;
  stages : float array;
}

external fft_batch : Cvec.t -> fft_tables -> int -> int -> unit
  = "jigsaw_simd_fft_batch"
[@@noalloc]

external deapod_row :
  Cvec.t ->
  (int[@untagged]) ->
  Cvec.t ->
  (int[@untagged]) ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  unit = "jigsaw_simd_deapod_row_bc" "jigsaw_simd_deapod_row"
[@@noalloc]

external copy_lines :
  Cvec.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  Cvec.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "jigsaw_simd_copy_lines_bc" "jigsaw_simd_copy_lines"
[@@noalloc]
