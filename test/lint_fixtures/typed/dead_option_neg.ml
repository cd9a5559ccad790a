(* Negative fixture for typ-dead-option: every optional parameter is
   supplied.  [Lib.inner]'s [?scale] is forwarded by [Lib.outer], whose
   own [?scale] the root sets; [Lib.core]'s [?k] is set by a library
   caller the root reaches; [Lib.clamp]'s [?lo] is set through a pipe;
   [Lib.mapped] is passed as a value, which may supply any of its labels;
   [Lib.boot]'s [?count] is set by a module initialiser. *)

module Lib = struct
  let inner ?(scale = 1.0) x = scale *. x
  let outer ?scale x = inner ?scale x
  let core ?(k = 1) x = x + k
  let api x = core ~k:3 x
  let clamp ?(lo = 0.0) x = Float.max lo x
  let mapped ?(offset = 0) x = x + offset
  let booted = ref 0
  let boot ?(count = 1) () = booted := !booted + count
  let () = boot ~count:2 ()
end

module Exe = struct
  let main () =
    let a = Lib.outer ~scale:2.0 1.0 |> Lib.clamp ~lo:0.5 in
    let b = List.map Lib.mapped [ 1; 2 ] in
    a +. float_of_int (Lib.api (List.length b))
end
