(* Numeric converters shared by the lbcc and lbcc-serve command lines: a
   value outside the range, NaN included, is a usage error (exit 2), not a
   run that fails, spins or reports nonsense. *)

open Cmdliner

let checked base ~ok ~expected =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg ("expected " ^ expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let probability =
  checked Arg.float ~ok:(fun p -> p >= 0.0 && p <= 1.0)
    ~expected:"a probability in [0, 1]"

let positive_float =
  checked Arg.float ~ok:(fun x -> x > 0.0 && Float.is_finite x)
    ~expected:"a positive finite number"

let positive_int =
  checked Arg.int ~ok:(fun k -> k >= 1) ~expected:"an integer >= 1"

let non_negative_int =
  checked Arg.int ~ok:(fun k -> k >= 0) ~expected:"an integer >= 0"
