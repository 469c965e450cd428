(** Library entry point: re-exports every public core module and lifts the
    plan API to the top level, so users write [Nufft.make],
    [Nufft.adjoint], [Nufft.Gridding.Slice_and_dice], ...

    This interface pins the re-export set: a module is part of the public
    surface exactly when it is listed here, so internal helpers can be
    added to the library without silently widening the API. *)

module Coord = Coord
module Sample = Sample
module Gridding_stats = Gridding_stats
module Gridding = Gridding
module Gridding_serial = Gridding_serial
module Gridding_output = Gridding_output
module Gridding_binned = Gridding_binned
module Gridding_slice = Gridding_slice
module Gridding3d = Gridding3d
module Minmax = Minmax
module Apodization = Apodization
module Nudft = Nudft
module Transform = Transform
module Sample_plan = Sample_plan
module Plan = Plan
module Toeplitz = Toeplitz
module Operator = Operator

include module type of struct
  include Plan
end
