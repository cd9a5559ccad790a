(* Positive fixture for typ-dead-export: [Lib] plays the library, [Exe]
   the executable whose top-level bindings are the roots, and [Test] a
   test module, which is not a root.  [Lib.Store.checked] is reached only
   from the test and [Lib.Store.orphan] from nothing: both fire.
   [Lib.Store.entry] is reached from the root and stays quiet. *)

module Lib = struct
  module Store = struct
    let checked x = x + 1
    let orphan x = x * 2
    let entry x = x - 1
  end
end

module Test = struct
  let check () = Lib.Store.checked 1 = 2
end

module Exe = struct
  let main () = Lib.Store.entry 3
end
