(* Parent-pinned phantom-routing run digests: see phantom_oracle.ml.
   Recorded on the commit before the sector walk became a direction
   policy of Phantom, from Phantom_runner (compass) and the former
   Sector_runner (sectors); do not regenerate from a later commit. *)

let table : (string * Phantom_oracle.observation) list =
  [
    ( "7x7/w0/compass/local/ideal/s1",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/compass/local/ideal/s2",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/compass/local/ideal/s3",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/compass/local/lossy/s1",
      { Phantom_oracle.digest = "374c89108e185fe6a794076294c26105"; captured = true; messages_sent = 386 } );
    ( "7x7/w0/compass/local/lossy/s2",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/compass/local/lossy/s3",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/compass/global/ideal/s1",
      { Phantom_oracle.digest = "7c48f533779f8f32896b2113677e4408"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/compass/global/ideal/s2",
      { Phantom_oracle.digest = "7c48f533779f8f32896b2113677e4408"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/compass/global/ideal/s3",
      { Phantom_oracle.digest = "7c48f533779f8f32896b2113677e4408"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/compass/global/lossy/s1",
      { Phantom_oracle.digest = "32971da6fa6a257eb37f76d492855d66"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/compass/global/lossy/s2",
      { Phantom_oracle.digest = "d34bc113ad9acd0e8b19eca58a5d3b90"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/compass/global/lossy/s3",
      { Phantom_oracle.digest = "7c48f533779f8f32896b2113677e4408"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors1/local/ideal/s1",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors1/local/ideal/s2",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors1/local/ideal/s3",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors1/local/lossy/s1",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors1/local/lossy/s2",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors1/local/lossy/s3",
      { Phantom_oracle.digest = "47c0cc5a75256b2aa5686fc805e6d690"; captured = true; messages_sent = 387 } );
    ( "7x7/w0/sectors1/global/ideal/s1",
      { Phantom_oracle.digest = "7c48f533779f8f32896b2113677e4408"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors1/global/ideal/s2",
      { Phantom_oracle.digest = "7c48f533779f8f32896b2113677e4408"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors1/global/ideal/s3",
      { Phantom_oracle.digest = "7c48f533779f8f32896b2113677e4408"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors1/global/lossy/s1",
      { Phantom_oracle.digest = "f9cd8010fdf97a2e27d2ddbaa440c376"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors1/global/lossy/s2",
      { Phantom_oracle.digest = "f16923f4087dbe4ee3f684db09f7bf9a"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors1/global/lossy/s3",
      { Phantom_oracle.digest = "d34bc113ad9acd0e8b19eca58a5d3b90"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors3/local/ideal/s1",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors3/local/ideal/s2",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors3/local/ideal/s3",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors3/local/lossy/s1",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors3/local/lossy/s2",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors3/local/lossy/s3",
      { Phantom_oracle.digest = "47c0cc5a75256b2aa5686fc805e6d690"; captured = true; messages_sent = 387 } );
    ( "7x7/w0/sectors3/global/ideal/s1",
      { Phantom_oracle.digest = "7c48f533779f8f32896b2113677e4408"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors3/global/ideal/s2",
      { Phantom_oracle.digest = "7c48f533779f8f32896b2113677e4408"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors3/global/ideal/s3",
      { Phantom_oracle.digest = "7c48f533779f8f32896b2113677e4408"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors3/global/lossy/s1",
      { Phantom_oracle.digest = "f9cd8010fdf97a2e27d2ddbaa440c376"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors3/global/lossy/s2",
      { Phantom_oracle.digest = "f16923f4087dbe4ee3f684db09f7bf9a"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors3/global/lossy/s3",
      { Phantom_oracle.digest = "d34bc113ad9acd0e8b19eca58a5d3b90"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors4/local/ideal/s1",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors4/local/ideal/s2",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors4/local/ideal/s3",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors4/local/lossy/s1",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors4/local/lossy/s2",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors4/local/lossy/s3",
      { Phantom_oracle.digest = "47c0cc5a75256b2aa5686fc805e6d690"; captured = true; messages_sent = 387 } );
    ( "7x7/w0/sectors4/global/ideal/s1",
      { Phantom_oracle.digest = "7c48f533779f8f32896b2113677e4408"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors4/global/ideal/s2",
      { Phantom_oracle.digest = "7c48f533779f8f32896b2113677e4408"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors4/global/ideal/s3",
      { Phantom_oracle.digest = "7c48f533779f8f32896b2113677e4408"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors4/global/lossy/s1",
      { Phantom_oracle.digest = "f9cd8010fdf97a2e27d2ddbaa440c376"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors4/global/lossy/s2",
      { Phantom_oracle.digest = "f16923f4087dbe4ee3f684db09f7bf9a"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors4/global/lossy/s3",
      { Phantom_oracle.digest = "d34bc113ad9acd0e8b19eca58a5d3b90"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors8/local/ideal/s1",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors8/local/ideal/s2",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors8/local/ideal/s3",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors8/local/lossy/s1",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors8/local/lossy/s2",
      { Phantom_oracle.digest = "4aaadfc11cfe27d84e768177bb85bbc9"; captured = true; messages_sent = 388 } );
    ( "7x7/w0/sectors8/local/lossy/s3",
      { Phantom_oracle.digest = "47c0cc5a75256b2aa5686fc805e6d690"; captured = true; messages_sent = 387 } );
    ( "7x7/w0/sectors8/global/ideal/s1",
      { Phantom_oracle.digest = "7c48f533779f8f32896b2113677e4408"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors8/global/ideal/s2",
      { Phantom_oracle.digest = "7c48f533779f8f32896b2113677e4408"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors8/global/ideal/s3",
      { Phantom_oracle.digest = "7c48f533779f8f32896b2113677e4408"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors8/global/lossy/s1",
      { Phantom_oracle.digest = "f9cd8010fdf97a2e27d2ddbaa440c376"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors8/global/lossy/s2",
      { Phantom_oracle.digest = "f16923f4087dbe4ee3f684db09f7bf9a"; captured = true; messages_sent = 153 } );
    ( "7x7/w0/sectors8/global/lossy/s3",
      { Phantom_oracle.digest = "d34bc113ad9acd0e8b19eca58a5d3b90"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/compass/local/ideal/s1",
      { Phantom_oracle.digest = "8c1962442503e32fb6582a4830686fe6"; captured = true; messages_sent = 403 } );
    ( "7x7/w3/compass/local/ideal/s2",
      { Phantom_oracle.digest = "ff432d87845a2f49306726e20589fc1a"; captured = true; messages_sent = 403 } );
    ( "7x7/w3/compass/local/ideal/s3",
      { Phantom_oracle.digest = "251345d70eb46379b52f2167e3b021f5"; captured = true; messages_sent = 403 } );
    ( "7x7/w3/compass/local/lossy/s1",
      { Phantom_oracle.digest = "2421f725f51bc56e9716b9db1a423957"; captured = true; messages_sent = 408 } );
    ( "7x7/w3/compass/local/lossy/s2",
      { Phantom_oracle.digest = "20cf20f409dd1398d26d9ed3a7f18598"; captured = true; messages_sent = 508 } );
    ( "7x7/w3/compass/local/lossy/s3",
      { Phantom_oracle.digest = "104c0a1259d6d365adcddeb3705cd1de"; captured = true; messages_sent = 457 } );
    ( "7x7/w3/compass/global/ideal/s1",
      { Phantom_oracle.digest = "3b820fde93d15d4744885b53d1ba556d"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/compass/global/ideal/s2",
      { Phantom_oracle.digest = "819c075eef4e5ed7c015045248f6e159"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/compass/global/ideal/s3",
      { Phantom_oracle.digest = "1ec4dbe34e7a5ea70db11c7d001f2b8f"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/compass/global/lossy/s1",
      { Phantom_oracle.digest = "d4d949ef3e667c45fb72639cbd9751e0"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/compass/global/lossy/s2",
      { Phantom_oracle.digest = "306fe20315bcd96c05889a3035a61aca"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/compass/global/lossy/s3",
      { Phantom_oracle.digest = "97fdb0f9f0565e77db0a1552fbe8baaf"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors1/local/ideal/s1",
      { Phantom_oracle.digest = "7c7ab0486ec1a7fbfd2aaa6ee35a05c7"; captured = true; messages_sent = 403 } );
    ( "7x7/w3/sectors1/local/ideal/s2",
      { Phantom_oracle.digest = "076f6d08aa79159fc853de36c5b0d235"; captured = true; messages_sent = 403 } );
    ( "7x7/w3/sectors1/local/ideal/s3",
      { Phantom_oracle.digest = "83eb2f226b2dd12d2373bffd2faf1e4d"; captured = true; messages_sent = 403 } );
    ( "7x7/w3/sectors1/local/lossy/s1",
      { Phantom_oracle.digest = "b7e67f17fc7b291cc0d0b676086c4630"; captured = true; messages_sent = 359 } );
    ( "7x7/w3/sectors1/local/lossy/s2",
      { Phantom_oracle.digest = "837a4c73a4f43391179e8525db1d1173"; captured = true; messages_sent = 406 } );
    ( "7x7/w3/sectors1/local/lossy/s3",
      { Phantom_oracle.digest = "eec72b337aa5385ed800a2868394d072"; captured = true; messages_sent = 412 } );
    ( "7x7/w3/sectors1/global/ideal/s1",
      { Phantom_oracle.digest = "e219b1f9fbae9d076059b672ae3a5151"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors1/global/ideal/s2",
      { Phantom_oracle.digest = "68d3e0a9be560df7bc9bfbf083b1a8c0"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors1/global/ideal/s3",
      { Phantom_oracle.digest = "68d3e0a9be560df7bc9bfbf083b1a8c0"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors1/global/lossy/s1",
      { Phantom_oracle.digest = "83a42f8beb86efd1f4e76b8d742f8c8c"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors1/global/lossy/s2",
      { Phantom_oracle.digest = "e494deb585ea375a0fa57bcdb8458365"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors1/global/lossy/s3",
      { Phantom_oracle.digest = "68d3e0a9be560df7bc9bfbf083b1a8c0"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors3/local/ideal/s1",
      { Phantom_oracle.digest = "24fe57a3c0b34139a9c45857dc72dc70"; captured = true; messages_sent = 403 } );
    ( "7x7/w3/sectors3/local/ideal/s2",
      { Phantom_oracle.digest = "806dc25fe2ea84e16ac17bfe5147fdf3"; captured = true; messages_sent = 403 } );
    ( "7x7/w3/sectors3/local/ideal/s3",
      { Phantom_oracle.digest = "4f93a0e7c3e60dfdbddc91d62dc2a48c"; captured = true; messages_sent = 403 } );
    ( "7x7/w3/sectors3/local/lossy/s1",
      { Phantom_oracle.digest = "f493cd2dcf5a0dbc334aa8c8ef6d28f4"; captured = true; messages_sent = 363 } );
    ( "7x7/w3/sectors3/local/lossy/s2",
      { Phantom_oracle.digest = "14afa4e0f13dcfbe4c56c8cc9ca3561e"; captured = true; messages_sent = 405 } );
    ( "7x7/w3/sectors3/local/lossy/s3",
      { Phantom_oracle.digest = "aab3405ab2a91a5ee70a352916516751"; captured = true; messages_sent = 406 } );
    ( "7x7/w3/sectors3/global/ideal/s1",
      { Phantom_oracle.digest = "819c075eef4e5ed7c015045248f6e159"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors3/global/ideal/s2",
      { Phantom_oracle.digest = "819c075eef4e5ed7c015045248f6e159"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors3/global/ideal/s3",
      { Phantom_oracle.digest = "68d3e0a9be560df7bc9bfbf083b1a8c0"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors3/global/lossy/s1",
      { Phantom_oracle.digest = "dc29c620ea77d7d75b90255de6a180af"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors3/global/lossy/s2",
      { Phantom_oracle.digest = "819c075eef4e5ed7c015045248f6e159"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors3/global/lossy/s3",
      { Phantom_oracle.digest = "68d3e0a9be560df7bc9bfbf083b1a8c0"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors4/local/ideal/s1",
      { Phantom_oracle.digest = "f6991bb6c865be27609cc7f0d537547f"; captured = true; messages_sent = 403 } );
    ( "7x7/w3/sectors4/local/ideal/s2",
      { Phantom_oracle.digest = "97b2af825f844d85527049407cba075a"; captured = true; messages_sent = 403 } );
    ( "7x7/w3/sectors4/local/ideal/s3",
      { Phantom_oracle.digest = "94633bdd7386cef43ed88a2512602a1d"; captured = true; messages_sent = 403 } );
    ( "7x7/w3/sectors4/local/lossy/s1",
      { Phantom_oracle.digest = "1008687c64c04728a73c72cb950a0ffe"; captured = true; messages_sent = 355 } );
    ( "7x7/w3/sectors4/local/lossy/s2",
      { Phantom_oracle.digest = "44cb90b5711b7778a0690a9c2df89366"; captured = true; messages_sent = 405 } );
    ( "7x7/w3/sectors4/local/lossy/s3",
      { Phantom_oracle.digest = "94633bdd7386cef43ed88a2512602a1d"; captured = true; messages_sent = 403 } );
    ( "7x7/w3/sectors4/global/ideal/s1",
      { Phantom_oracle.digest = "7524da81e1d46f11ce74a88f9ab3a371"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors4/global/ideal/s2",
      { Phantom_oracle.digest = "230eb3527851d707eeec90abaa44ae67"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors4/global/ideal/s3",
      { Phantom_oracle.digest = "68d3e0a9be560df7bc9bfbf083b1a8c0"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors4/global/lossy/s1",
      { Phantom_oracle.digest = "cc5810ac5b6b3c97291f7a67067e33b6"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors4/global/lossy/s2",
      { Phantom_oracle.digest = "8585a148114f727a5c3859b58fe37eee"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors4/global/lossy/s3",
      { Phantom_oracle.digest = "68d3e0a9be560df7bc9bfbf083b1a8c0"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors8/local/ideal/s1",
      { Phantom_oracle.digest = "12d3fad5afa858af00aaea60bb71a3a6"; captured = true; messages_sent = 403 } );
    ( "7x7/w3/sectors8/local/ideal/s2",
      { Phantom_oracle.digest = "cd904c65996baa90bb1ce37a60906aa8"; captured = true; messages_sent = 403 } );
    ( "7x7/w3/sectors8/local/ideal/s3",
      { Phantom_oracle.digest = "3792845eed36d90aeeeac7ad23647bfb"; captured = true; messages_sent = 403 } );
    ( "7x7/w3/sectors8/local/lossy/s1",
      { Phantom_oracle.digest = "c37104cca249777c3514815bd3265c6b"; captured = true; messages_sent = 412 } );
    ( "7x7/w3/sectors8/local/lossy/s2",
      { Phantom_oracle.digest = "bf580ca41087d9243e78eb872d1eacb8"; captured = true; messages_sent = 407 } );
    ( "7x7/w3/sectors8/local/lossy/s3",
      { Phantom_oracle.digest = "88f28fba70117c2dc1145c15277dcd2f"; captured = true; messages_sent = 355 } );
    ( "7x7/w3/sectors8/global/ideal/s1",
      { Phantom_oracle.digest = "819c075eef4e5ed7c015045248f6e159"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors8/global/ideal/s2",
      { Phantom_oracle.digest = "68d3e0a9be560df7bc9bfbf083b1a8c0"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors8/global/ideal/s3",
      { Phantom_oracle.digest = "68d3e0a9be560df7bc9bfbf083b1a8c0"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors8/global/lossy/s1",
      { Phantom_oracle.digest = "dc29c620ea77d7d75b90255de6a180af"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors8/global/lossy/s2",
      { Phantom_oracle.digest = "dd7c395d51df331a514f01143e865de2"; captured = true; messages_sent = 153 } );
    ( "7x7/w3/sectors8/global/lossy/s3",
      { Phantom_oracle.digest = "68d3e0a9be560df7bc9bfbf083b1a8c0"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/compass/local/ideal/s1",
      { Phantom_oracle.digest = "5e1a5e357cc38da266accdc381f8fc25"; captured = true; messages_sent = 438 } );
    ( "7x7/w10/compass/local/ideal/s2",
      { Phantom_oracle.digest = "ce89037d63ff066d6c78e2cfd0fb1006"; captured = false; messages_sent = 785 } );
    ( "7x7/w10/compass/local/ideal/s3",
      { Phantom_oracle.digest = "ddffba796699e74410f88e852ca40f91"; captured = true; messages_sent = 438 } );
    ( "7x7/w10/compass/local/lossy/s1",
      { Phantom_oracle.digest = "491ec80d4f583dfd7dded95b92b94765"; captured = true; messages_sent = 401 } );
    ( "7x7/w10/compass/local/lossy/s2",
      { Phantom_oracle.digest = "a54722958e523c181966c9c97bd2f12d"; captured = false; messages_sent = 350 } );
    ( "7x7/w10/compass/local/lossy/s3",
      { Phantom_oracle.digest = "5160196e3fbc35d688668ef1c68ca7bb"; captured = false; messages_sent = 465 } );
    ( "7x7/w10/compass/global/ideal/s1",
      { Phantom_oracle.digest = "99d564f7c657ffb6a73a35622a884c42"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/compass/global/ideal/s2",
      { Phantom_oracle.digest = "3d2d49dbf868a256d610fa6d5af76cae"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/compass/global/ideal/s3",
      { Phantom_oracle.digest = "5ec1623923f322567ab1ad864acce03c"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/compass/global/lossy/s1",
      { Phantom_oracle.digest = "d4d949ef3e667c45fb72639cbd9751e0"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/compass/global/lossy/s2",
      { Phantom_oracle.digest = "fd852881702087a85886282324ceb596"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/compass/global/lossy/s3",
      { Phantom_oracle.digest = "5ec1623923f322567ab1ad864acce03c"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors1/local/ideal/s1",
      { Phantom_oracle.digest = "ce5e266c00016698ffff6696d4e7183a"; captured = true; messages_sent = 438 } );
    ( "7x7/w10/sectors1/local/ideal/s2",
      { Phantom_oracle.digest = "1215932216c4bea6bf49db4a27311846"; captured = true; messages_sent = 438 } );
    ( "7x7/w10/sectors1/local/ideal/s3",
      { Phantom_oracle.digest = "49640cb03c65d2f5b95ea190ee53c1bc"; captured = true; messages_sent = 554 } );
    ( "7x7/w10/sectors1/local/lossy/s1",
      { Phantom_oracle.digest = "e002cc857f243dd081c96e3d60c7c2be"; captured = true; messages_sent = 389 } );
    ( "7x7/w10/sectors1/local/lossy/s2",
      { Phantom_oracle.digest = "c3f38a34c13ce5fd6b475c173df44c42"; captured = false; messages_sent = 308 } );
    ( "7x7/w10/sectors1/local/lossy/s3",
      { Phantom_oracle.digest = "fd29420ca2c059add662b6d140ace3c7"; captured = true; messages_sent = 341 } );
    ( "7x7/w10/sectors1/global/ideal/s1",
      { Phantom_oracle.digest = "79da03f0ed6a27d6696e8d66aa22d331"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors1/global/ideal/s2",
      { Phantom_oracle.digest = "8f8bf3dbdb6c49d60189918311d7e863"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors1/global/ideal/s3",
      { Phantom_oracle.digest = "8f8bf3dbdb6c49d60189918311d7e863"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors1/global/lossy/s1",
      { Phantom_oracle.digest = "79da03f0ed6a27d6696e8d66aa22d331"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors1/global/lossy/s2",
      { Phantom_oracle.digest = "fd852881702087a85886282324ceb596"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors1/global/lossy/s3",
      { Phantom_oracle.digest = "8f8bf3dbdb6c49d60189918311d7e863"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors3/local/ideal/s1",
      { Phantom_oracle.digest = "16f75d0e0b3bec769f307d0e55ab7962"; captured = true; messages_sent = 554 } );
    ( "7x7/w10/sectors3/local/ideal/s2",
      { Phantom_oracle.digest = "0efeb35e3624ec0ce0d6d4851fa06cb9"; captured = true; messages_sent = 438 } );
    ( "7x7/w10/sectors3/local/ideal/s3",
      { Phantom_oracle.digest = "30ee1066883eba0379610eed0a20e78d"; captured = true; messages_sent = 670 } );
    ( "7x7/w10/sectors3/local/lossy/s1",
      { Phantom_oracle.digest = "ed97cdadca53ec7e438cf2969684545e"; captured = true; messages_sent = 412 } );
    ( "7x7/w10/sectors3/local/lossy/s2",
      { Phantom_oracle.digest = "d1e8132f1b1b028a944b0a90e4c7de8f"; captured = false; messages_sent = 358 } );
    ( "7x7/w10/sectors3/local/lossy/s3",
      { Phantom_oracle.digest = "8c19fd2ab072c2fc88cfc869eac3dbb7"; captured = false; messages_sent = 311 } );
    ( "7x7/w10/sectors3/global/ideal/s1",
      { Phantom_oracle.digest = "3d2d49dbf868a256d610fa6d5af76cae"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors3/global/ideal/s2",
      { Phantom_oracle.digest = "3d2d49dbf868a256d610fa6d5af76cae"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors3/global/ideal/s3",
      { Phantom_oracle.digest = "e61af13b43a1fae6c93371afe68cdf8c"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors3/global/lossy/s1",
      { Phantom_oracle.digest = "9869d45e12bf3baf1bf1a413e92cd79e"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors3/global/lossy/s2",
      { Phantom_oracle.digest = "3fea0aaf089793925dc313eed5a2c075"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors3/global/lossy/s3",
      { Phantom_oracle.digest = "e61af13b43a1fae6c93371afe68cdf8c"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors4/local/ideal/s1",
      { Phantom_oracle.digest = "0038677fc272e75f4f985770576410d5"; captured = true; messages_sent = 438 } );
    ( "7x7/w10/sectors4/local/ideal/s2",
      { Phantom_oracle.digest = "072aa1d7629385e5ccc11413d9740016"; captured = true; messages_sent = 438 } );
    ( "7x7/w10/sectors4/local/ideal/s3",
      { Phantom_oracle.digest = "dd1ea3354871f3ef3b48b7776a28d38c"; captured = true; messages_sent = 438 } );
    ( "7x7/w10/sectors4/local/lossy/s1",
      { Phantom_oracle.digest = "41db26b9d86bec4a60dc38fc6e85b196"; captured = true; messages_sent = 350 } );
    ( "7x7/w10/sectors4/local/lossy/s2",
      { Phantom_oracle.digest = "ea7b03e1fdc8c790f352df2c9d0c0672"; captured = false; messages_sent = 311 } );
    ( "7x7/w10/sectors4/local/lossy/s3",
      { Phantom_oracle.digest = "7c059c158bd61d340d10f14411381e7b"; captured = false; messages_sent = 416 } );
    ( "7x7/w10/sectors4/global/ideal/s1",
      { Phantom_oracle.digest = "430002dae2df7ee6d5a6a1d0c02366ea"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors4/global/ideal/s2",
      { Phantom_oracle.digest = "34a62ad5e2716f26148b08ddb726c578"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors4/global/ideal/s3",
      { Phantom_oracle.digest = "e61af13b43a1fae6c93371afe68cdf8c"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors4/global/lossy/s1",
      { Phantom_oracle.digest = "5d182c3755dc571fa01d0327af2a03e7"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors4/global/lossy/s2",
      { Phantom_oracle.digest = "0485ea3f23cebb1c302a62f7297dc3a2"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors4/global/lossy/s3",
      { Phantom_oracle.digest = "e61af13b43a1fae6c93371afe68cdf8c"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors8/local/ideal/s1",
      { Phantom_oracle.digest = "e6b559141bbf45d54df3c5495c962028"; captured = true; messages_sent = 670 } );
    ( "7x7/w10/sectors8/local/ideal/s2",
      { Phantom_oracle.digest = "9cdccee7c13c917589c13a6077bd4cd5"; captured = true; messages_sent = 438 } );
    ( "7x7/w10/sectors8/local/ideal/s3",
      { Phantom_oracle.digest = "00ef9dc80c690bf037b7251050a2c34a"; captured = true; messages_sent = 438 } );
    ( "7x7/w10/sectors8/local/lossy/s1",
      { Phantom_oracle.digest = "b63a7f7230ef1acac665d430fb9b60d8"; captured = false; messages_sent = 410 } );
    ( "7x7/w10/sectors8/local/lossy/s2",
      { Phantom_oracle.digest = "5a902b24bdb8fa6a19277d8f7bc63de7"; captured = false; messages_sent = 303 } );
    ( "7x7/w10/sectors8/local/lossy/s3",
      { Phantom_oracle.digest = "2e111ea518a2ee3e56158adac077e3f3"; captured = false; messages_sent = 241 } );
    ( "7x7/w10/sectors8/global/ideal/s1",
      { Phantom_oracle.digest = "3d2d49dbf868a256d610fa6d5af76cae"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors8/global/ideal/s2",
      { Phantom_oracle.digest = "8f8bf3dbdb6c49d60189918311d7e863"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors8/global/ideal/s3",
      { Phantom_oracle.digest = "e61af13b43a1fae6c93371afe68cdf8c"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors8/global/lossy/s1",
      { Phantom_oracle.digest = "9869d45e12bf3baf1bf1a413e92cd79e"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors8/global/lossy/s2",
      { Phantom_oracle.digest = "f5881fb551aa3a4c74aba0d8b5af083a"; captured = true; messages_sent = 153 } );
    ( "7x7/w10/sectors8/global/lossy/s3",
      { Phantom_oracle.digest = "e61af13b43a1fae6c93371afe68cdf8c"; captured = true; messages_sent = 153 } );
    ( "11x11/w0/compass/local/ideal/s1",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/compass/local/ideal/s2",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/compass/local/ideal/s3",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/compass/local/lossy/s1",
      { Phantom_oracle.digest = "95ca9d062c05bfa7eb3a82a1efaae69b"; captured = true; messages_sent = 1442 } );
    ( "11x11/w0/compass/local/lossy/s2",
      { Phantom_oracle.digest = "c2b79eeffdbd0c2f36980ac834f9b9d7"; captured = true; messages_sent = 1443 } );
    ( "11x11/w0/compass/local/lossy/s3",
      { Phantom_oracle.digest = "f5311dacf5884b113beebc82d5b105c7"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/compass/global/ideal/s1",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/compass/global/ideal/s2",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/compass/global/ideal/s3",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/compass/global/lossy/s1",
      { Phantom_oracle.digest = "213f6875e19392f9961278bff85a905c"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/compass/global/lossy/s2",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/compass/global/lossy/s3",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors1/local/ideal/s1",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors1/local/ideal/s2",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors1/local/ideal/s3",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors1/local/lossy/s1",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors1/local/lossy/s2",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors1/local/lossy/s3",
      { Phantom_oracle.digest = "c8e0da0d2a8658115358f0016f2421b9"; captured = true; messages_sent = 1443 } );
    ( "11x11/w0/sectors1/global/ideal/s1",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors1/global/ideal/s2",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors1/global/ideal/s3",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors1/global/lossy/s1",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors1/global/lossy/s2",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors1/global/lossy/s3",
      { Phantom_oracle.digest = "213f6875e19392f9961278bff85a905c"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors3/local/ideal/s1",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors3/local/ideal/s2",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors3/local/ideal/s3",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors3/local/lossy/s1",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors3/local/lossy/s2",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors3/local/lossy/s3",
      { Phantom_oracle.digest = "c8e0da0d2a8658115358f0016f2421b9"; captured = true; messages_sent = 1443 } );
    ( "11x11/w0/sectors3/global/ideal/s1",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors3/global/ideal/s2",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors3/global/ideal/s3",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors3/global/lossy/s1",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors3/global/lossy/s2",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors3/global/lossy/s3",
      { Phantom_oracle.digest = "213f6875e19392f9961278bff85a905c"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors4/local/ideal/s1",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors4/local/ideal/s2",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors4/local/ideal/s3",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors4/local/lossy/s1",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors4/local/lossy/s2",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors4/local/lossy/s3",
      { Phantom_oracle.digest = "c8e0da0d2a8658115358f0016f2421b9"; captured = true; messages_sent = 1443 } );
    ( "11x11/w0/sectors4/global/ideal/s1",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors4/global/ideal/s2",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors4/global/ideal/s3",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors4/global/lossy/s1",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors4/global/lossy/s2",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors4/global/lossy/s3",
      { Phantom_oracle.digest = "213f6875e19392f9961278bff85a905c"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors8/local/ideal/s1",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors8/local/ideal/s2",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors8/local/ideal/s3",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors8/local/lossy/s1",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors8/local/lossy/s2",
      { Phantom_oracle.digest = "275ab02aabce6ba9e2ead5b6b391c6da"; captured = true; messages_sent = 1444 } );
    ( "11x11/w0/sectors8/local/lossy/s3",
      { Phantom_oracle.digest = "c8e0da0d2a8658115358f0016f2421b9"; captured = true; messages_sent = 1443 } );
    ( "11x11/w0/sectors8/global/ideal/s1",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors8/global/ideal/s2",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors8/global/ideal/s3",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors8/global/lossy/s1",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors8/global/lossy/s2",
      { Phantom_oracle.digest = "165401305f41ad7609f266e2565742b8"; captured = true; messages_sent = 373 } );
    ( "11x11/w0/sectors8/global/lossy/s3",
      { Phantom_oracle.digest = "213f6875e19392f9961278bff85a905c"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/compass/local/ideal/s1",
      { Phantom_oracle.digest = "24c5a8f8cacd67599a97d9dee718fcb4"; captured = true; messages_sent = 1471 } );
    ( "11x11/w3/compass/local/ideal/s2",
      { Phantom_oracle.digest = "3f88e7656058bf229f8cbc92cce33afc"; captured = true; messages_sent = 1471 } );
    ( "11x11/w3/compass/local/ideal/s3",
      { Phantom_oracle.digest = "53fd7f30ee34f7b43310e1ccbcecd113"; captured = true; messages_sent = 1471 } );
    ( "11x11/w3/compass/local/lossy/s1",
      { Phantom_oracle.digest = "33afe2447a4b3bfdab07d787e9979dde"; captured = true; messages_sent = 1478 } );
    ( "11x11/w3/compass/local/lossy/s2",
      { Phantom_oracle.digest = "87527b6bd4803bde9e7a87306d64927b"; captured = true; messages_sent = 1477 } );
    ( "11x11/w3/compass/local/lossy/s3",
      { Phantom_oracle.digest = "7c4eaebb573e4893aefe430d10cd8ec5"; captured = true; messages_sent = 1484 } );
    ( "11x11/w3/compass/global/ideal/s1",
      { Phantom_oracle.digest = "882344b6529f844e38f33aeaef5ea019"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/compass/global/ideal/s2",
      { Phantom_oracle.digest = "6b70bb02b934a286550cc728f588726d"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/compass/global/ideal/s3",
      { Phantom_oracle.digest = "d4a87229bef4dd9ebdb9a6bc757fe593"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/compass/global/lossy/s1",
      { Phantom_oracle.digest = "332728fb9c73feef3111bc8a54fdd67b"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/compass/global/lossy/s2",
      { Phantom_oracle.digest = "6238f98e5bde5fd6bdf2f6255a5578be"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/compass/global/lossy/s3",
      { Phantom_oracle.digest = "63d3b4dc4493a676b268257f1948325c"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors1/local/ideal/s1",
      { Phantom_oracle.digest = "44d3821a3fcd13634b78d90046bf184b"; captured = true; messages_sent = 1471 } );
    ( "11x11/w3/sectors1/local/ideal/s2",
      { Phantom_oracle.digest = "394375f673646c17d7c00bc8cdd4620c"; captured = true; messages_sent = 1471 } );
    ( "11x11/w3/sectors1/local/ideal/s3",
      { Phantom_oracle.digest = "eba72f521a7685db0393568d27426bd1"; captured = true; messages_sent = 1471 } );
    ( "11x11/w3/sectors1/local/lossy/s1",
      { Phantom_oracle.digest = "6df08fe0fcbd670f36c5d8a7f61c2e20"; captured = true; messages_sent = 1477 } );
    ( "11x11/w3/sectors1/local/lossy/s2",
      { Phantom_oracle.digest = "a82ca0f59a3366387ee7dd4d9a123ec3"; captured = true; messages_sent = 1473 } );
    ( "11x11/w3/sectors1/local/lossy/s3",
      { Phantom_oracle.digest = "bb1fbb6f498430e3ffc4a9fde89aa4f1"; captured = true; messages_sent = 1479 } );
    ( "11x11/w3/sectors1/global/ideal/s1",
      { Phantom_oracle.digest = "cd7173a56a1fa09eba8cd2c1a3a30a57"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors1/global/ideal/s2",
      { Phantom_oracle.digest = "4b4a0a4f517944b60d6c8a0aebc63c65"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors1/global/ideal/s3",
      { Phantom_oracle.digest = "4b4a0a4f517944b60d6c8a0aebc63c65"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors1/global/lossy/s1",
      { Phantom_oracle.digest = "cd7173a56a1fa09eba8cd2c1a3a30a57"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors1/global/lossy/s2",
      { Phantom_oracle.digest = "4b4a0a4f517944b60d6c8a0aebc63c65"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors1/global/lossy/s3",
      { Phantom_oracle.digest = "f0ff6bef4c51170ea0dc5b6b87235535"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors3/local/ideal/s1",
      { Phantom_oracle.digest = "3c63f0406c107cb80324573eb5f9e9b0"; captured = true; messages_sent = 1471 } );
    ( "11x11/w3/sectors3/local/ideal/s2",
      { Phantom_oracle.digest = "1c1476d5c0b8b8d71b8e5f828ad52de5"; captured = true; messages_sent = 1471 } );
    ( "11x11/w3/sectors3/local/ideal/s3",
      { Phantom_oracle.digest = "d51b3a039bd4bb56e6f20b269a91af28"; captured = true; messages_sent = 1471 } );
    ( "11x11/w3/sectors3/local/lossy/s1",
      { Phantom_oracle.digest = "bbaf84be9108befbd70baf78fe5f4861"; captured = true; messages_sent = 1474 } );
    ( "11x11/w3/sectors3/local/lossy/s2",
      { Phantom_oracle.digest = "9315b4214eed4d0b27e2ce47c1d6b198"; captured = true; messages_sent = 1357 } );
    ( "11x11/w3/sectors3/local/lossy/s3",
      { Phantom_oracle.digest = "9e4ccdfdba99ad130c475b898d4a5e22"; captured = false; messages_sent = 1483 } );
    ( "11x11/w3/sectors3/global/ideal/s1",
      { Phantom_oracle.digest = "6b70bb02b934a286550cc728f588726d"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors3/global/ideal/s2",
      { Phantom_oracle.digest = "6b70bb02b934a286550cc728f588726d"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors3/global/ideal/s3",
      { Phantom_oracle.digest = "06e0fae87a000c1e076a0712b992a0e1"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors3/global/lossy/s1",
      { Phantom_oracle.digest = "6b70bb02b934a286550cc728f588726d"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors3/global/lossy/s2",
      { Phantom_oracle.digest = "0412e3cca3f89b923d8acf8f7dc40cc7"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors3/global/lossy/s3",
      { Phantom_oracle.digest = "b33989286fe120742f8e4fa1c57ad763"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors4/local/ideal/s1",
      { Phantom_oracle.digest = "cc9a0035ca0000f1c02eb48e914bb62f"; captured = true; messages_sent = 1471 } );
    ( "11x11/w3/sectors4/local/ideal/s2",
      { Phantom_oracle.digest = "b38edad8e7490c9b22fefa323f403bde"; captured = true; messages_sent = 1471 } );
    ( "11x11/w3/sectors4/local/ideal/s3",
      { Phantom_oracle.digest = "d4c02f702621f107071447a3378b4a0a"; captured = true; messages_sent = 1471 } );
    ( "11x11/w3/sectors4/local/lossy/s1",
      { Phantom_oracle.digest = "e96834a27ba42b3fc832d4e78102f34c"; captured = true; messages_sent = 1471 } );
    ( "11x11/w3/sectors4/local/lossy/s2",
      { Phantom_oracle.digest = "9434cc081d38a7ae6b6a2ffd8564b2c4"; captured = true; messages_sent = 1475 } );
    ( "11x11/w3/sectors4/local/lossy/s3",
      { Phantom_oracle.digest = "c8fe827708d6c152aea893a45296e076"; captured = true; messages_sent = 1477 } );
    ( "11x11/w3/sectors4/global/ideal/s1",
      { Phantom_oracle.digest = "5dd6fcd51dba8770b17040d324b05cec"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors4/global/ideal/s2",
      { Phantom_oracle.digest = "f7f3db89ab5eed201148994b6a1a9cd6"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors4/global/ideal/s3",
      { Phantom_oracle.digest = "06e0fae87a000c1e076a0712b992a0e1"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors4/global/lossy/s1",
      { Phantom_oracle.digest = "5dd6fcd51dba8770b17040d324b05cec"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors4/global/lossy/s2",
      { Phantom_oracle.digest = "f7f3db89ab5eed201148994b6a1a9cd6"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors4/global/lossy/s3",
      { Phantom_oracle.digest = "8c488bfe89cfb3e46b06e9248a4d81b4"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors8/local/ideal/s1",
      { Phantom_oracle.digest = "7daeafa393cc710731356794a7f9d186"; captured = true; messages_sent = 1471 } );
    ( "11x11/w3/sectors8/local/ideal/s2",
      { Phantom_oracle.digest = "ec5b544f573865bfb15dd310da4290d4"; captured = true; messages_sent = 1471 } );
    ( "11x11/w3/sectors8/local/ideal/s3",
      { Phantom_oracle.digest = "e90253e455d05aaad11c8930978da905"; captured = true; messages_sent = 1471 } );
    ( "11x11/w3/sectors8/local/lossy/s1",
      { Phantom_oracle.digest = "56c08c44a33cbee1ec4a44e6c77d0ad7"; captured = true; messages_sent = 1480 } );
    ( "11x11/w3/sectors8/local/lossy/s2",
      { Phantom_oracle.digest = "02c376dc8aedfc417fa0ace973204237"; captured = true; messages_sent = 1476 } );
    ( "11x11/w3/sectors8/local/lossy/s3",
      { Phantom_oracle.digest = "09001d6bb6ab257a6ad7e465f473015a"; captured = true; messages_sent = 1478 } );
    ( "11x11/w3/sectors8/global/ideal/s1",
      { Phantom_oracle.digest = "6b70bb02b934a286550cc728f588726d"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors8/global/ideal/s2",
      { Phantom_oracle.digest = "4b4a0a4f517944b60d6c8a0aebc63c65"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors8/global/ideal/s3",
      { Phantom_oracle.digest = "06e0fae87a000c1e076a0712b992a0e1"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors8/global/lossy/s1",
      { Phantom_oracle.digest = "6b70bb02b934a286550cc728f588726d"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors8/global/lossy/s2",
      { Phantom_oracle.digest = "4b4a0a4f517944b60d6c8a0aebc63c65"; captured = true; messages_sent = 373 } );
    ( "11x11/w3/sectors8/global/lossy/s3",
      { Phantom_oracle.digest = "8c488bfe89cfb3e46b06e9248a4d81b4"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/compass/local/ideal/s1",
      { Phantom_oracle.digest = "2827d6d35b3edede446789a94d870da8"; captured = true; messages_sent = 1794 } );
    ( "11x11/w10/compass/local/ideal/s2",
      { Phantom_oracle.digest = "2558fcd54e153221df34c6523dde6eb1"; captured = true; messages_sent = 1534 } );
    ( "11x11/w10/compass/local/ideal/s3",
      { Phantom_oracle.digest = "ae38d65c72b79dcace8eac7463a78b22"; captured = true; messages_sent = 1535 } );
    ( "11x11/w10/compass/local/lossy/s1",
      { Phantom_oracle.digest = "ebddbbb9e351f8c1f33dfa0249ad7fa7"; captured = false; messages_sent = 1049 } );
    ( "11x11/w10/compass/local/lossy/s2",
      { Phantom_oracle.digest = "f77fcbb77d7a4b4ae3e40f03042795a8"; captured = false; messages_sent = 947 } );
    ( "11x11/w10/compass/local/lossy/s3",
      { Phantom_oracle.digest = "8c592425c1129666fb128d14bbd7c9f2"; captured = false; messages_sent = 1079 } );
    ( "11x11/w10/compass/global/ideal/s1",
      { Phantom_oracle.digest = "65766c667c74531201a2c7d75cd3e955"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/compass/global/ideal/s2",
      { Phantom_oracle.digest = "e2df709ccae139b244a57c3e99517513"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/compass/global/ideal/s3",
      { Phantom_oracle.digest = "f62fd59cca2a66928aa153932342f18d"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/compass/global/lossy/s1",
      { Phantom_oracle.digest = "6740022a57d3016825dc5174df691a5f"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/compass/global/lossy/s2",
      { Phantom_oracle.digest = "107b50d3836e4cc81b405279bd441c0b"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/compass/global/lossy/s3",
      { Phantom_oracle.digest = "137a683c47e917fefd5d41827a7ac251"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors1/local/ideal/s1",
      { Phantom_oracle.digest = "713daeadabfc95a7c662fc6fdcac5b73"; captured = true; messages_sent = 1535 } );
    ( "11x11/w10/sectors1/local/ideal/s2",
      { Phantom_oracle.digest = "9f8d5bbc8a742ac0dfdbf019063bc3f7"; captured = true; messages_sent = 1534 } );
    ( "11x11/w10/sectors1/local/ideal/s3",
      { Phantom_oracle.digest = "65aaecaecf709f8c9a6bf8f9de3c446f"; captured = true; messages_sent = 1535 } );
    ( "11x11/w10/sectors1/local/lossy/s1",
      { Phantom_oracle.digest = "7e264d530796f25892da246d0c8bdb18"; captured = false; messages_sent = 1435 } );
    ( "11x11/w10/sectors1/local/lossy/s2",
      { Phantom_oracle.digest = "29200e1446e2091b206885659d0ab205"; captured = false; messages_sent = 1307 } );
    ( "11x11/w10/sectors1/local/lossy/s3",
      { Phantom_oracle.digest = "0f96966d2129762b1147bc38448aad29"; captured = false; messages_sent = 1185 } );
    ( "11x11/w10/sectors1/global/ideal/s1",
      { Phantom_oracle.digest = "5e12fbb9424309f2190db9312bb14eb5"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors1/global/ideal/s2",
      { Phantom_oracle.digest = "406c0747a498f8f2b46d8a2c7f962bf5"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors1/global/ideal/s3",
      { Phantom_oracle.digest = "406c0747a498f8f2b46d8a2c7f962bf5"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors1/global/lossy/s1",
      { Phantom_oracle.digest = "9219beaa0f45a3f8429c0db0a6440da8"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors1/global/lossy/s2",
      { Phantom_oracle.digest = "406c0747a498f8f2b46d8a2c7f962bf5"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors1/global/lossy/s3",
      { Phantom_oracle.digest = "406c0747a498f8f2b46d8a2c7f962bf5"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors3/local/ideal/s1",
      { Phantom_oracle.digest = "9ba9e524b2f927c73a2a756ab6aeb7af"; captured = true; messages_sent = 1534 } );
    ( "11x11/w10/sectors3/local/ideal/s2",
      { Phantom_oracle.digest = "cd0a06d4e551abb199f7acffbded107d"; captured = true; messages_sent = 1534 } );
    ( "11x11/w10/sectors3/local/ideal/s3",
      { Phantom_oracle.digest = "466e428b8d0505f8b930e8d7ca027847"; captured = true; messages_sent = 1534 } );
    ( "11x11/w10/sectors3/local/lossy/s1",
      { Phantom_oracle.digest = "ae06a20928a9709983445fe05d0c894e"; captured = false; messages_sent = 1076 } );
    ( "11x11/w10/sectors3/local/lossy/s2",
      { Phantom_oracle.digest = "9f6dce785190c26dc16732514805f881"; captured = false; messages_sent = 1188 } );
    ( "11x11/w10/sectors3/local/lossy/s3",
      { Phantom_oracle.digest = "293aeaa773a25f11039b5110a190c914"; captured = false; messages_sent = 945 } );
    ( "11x11/w10/sectors3/global/ideal/s1",
      { Phantom_oracle.digest = "e2df709ccae139b244a57c3e99517513"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors3/global/ideal/s2",
      { Phantom_oracle.digest = "e2df709ccae139b244a57c3e99517513"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors3/global/ideal/s3",
      { Phantom_oracle.digest = "d5a7cdbc173509b2fa323c22f3a78a8c"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors3/global/lossy/s1",
      { Phantom_oracle.digest = "e2df709ccae139b244a57c3e99517513"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors3/global/lossy/s2",
      { Phantom_oracle.digest = "eb606302c07f9045381c08ceef211d64"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors3/global/lossy/s3",
      { Phantom_oracle.digest = "98a12a25b4bb69f34f43ed1fa478b947"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors4/local/ideal/s1",
      { Phantom_oracle.digest = "50b4ab7d23868943352a05e5a39cd578"; captured = true; messages_sent = 1534 } );
    ( "11x11/w10/sectors4/local/ideal/s2",
      { Phantom_oracle.digest = "f54f7dbc506ec3be2a9e81018c6302a7"; captured = true; messages_sent = 1534 } );
    ( "11x11/w10/sectors4/local/ideal/s3",
      { Phantom_oracle.digest = "553b4e5b3ea00cfbae65583ba4df2893"; captured = true; messages_sent = 1534 } );
    ( "11x11/w10/sectors4/local/lossy/s1",
      { Phantom_oracle.digest = "fa6dbe55a4e900913aa7fc8ac8995723"; captured = true; messages_sent = 1428 } );
    ( "11x11/w10/sectors4/local/lossy/s2",
      { Phantom_oracle.digest = "70ba4dc66db84e82d3428df95eb3df18"; captured = false; messages_sent = 1074 } );
    ( "11x11/w10/sectors4/local/lossy/s3",
      { Phantom_oracle.digest = "f745e7273c2fdb105664096769e5a4af"; captured = false; messages_sent = 805 } );
    ( "11x11/w10/sectors4/global/ideal/s1",
      { Phantom_oracle.digest = "3c1562a0e30293726def7b3ce7dc27d5"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors4/global/ideal/s2",
      { Phantom_oracle.digest = "d5a7cdbc173509b2fa323c22f3a78a8c"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors4/global/ideal/s3",
      { Phantom_oracle.digest = "d5a7cdbc173509b2fa323c22f3a78a8c"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors4/global/lossy/s1",
      { Phantom_oracle.digest = "3c1562a0e30293726def7b3ce7dc27d5"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors4/global/lossy/s2",
      { Phantom_oracle.digest = "d5a7cdbc173509b2fa323c22f3a78a8c"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors4/global/lossy/s3",
      { Phantom_oracle.digest = "e9afc1048fb61b6f2093b96f550d26f1"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors8/local/ideal/s1",
      { Phantom_oracle.digest = "403556905870ec1545ddad36068fb157"; captured = true; messages_sent = 1534 } );
    ( "11x11/w10/sectors8/local/ideal/s2",
      { Phantom_oracle.digest = "160fb967d6087180705304a2bc1977b4"; captured = true; messages_sent = 1534 } );
    ( "11x11/w10/sectors8/local/ideal/s3",
      { Phantom_oracle.digest = "b50875f9cd7c30d942b18bc84e0f5fad"; captured = true; messages_sent = 1534 } );
    ( "11x11/w10/sectors8/local/lossy/s1",
      { Phantom_oracle.digest = "c261d0e65847f8fe383935440e7327d0"; captured = true; messages_sent = 1300 } );
    ( "11x11/w10/sectors8/local/lossy/s2",
      { Phantom_oracle.digest = "58dc2e48050f247e1b1cdda49e2f86df"; captured = false; messages_sent = 1448 } );
    ( "11x11/w10/sectors8/local/lossy/s3",
      { Phantom_oracle.digest = "549f2b7caa6e7a4c667b9b1209e40441"; captured = false; messages_sent = 940 } );
    ( "11x11/w10/sectors8/global/ideal/s1",
      { Phantom_oracle.digest = "e2df709ccae139b244a57c3e99517513"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors8/global/ideal/s2",
      { Phantom_oracle.digest = "406c0747a498f8f2b46d8a2c7f962bf5"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors8/global/ideal/s3",
      { Phantom_oracle.digest = "d5a7cdbc173509b2fa323c22f3a78a8c"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors8/global/lossy/s1",
      { Phantom_oracle.digest = "e2df709ccae139b244a57c3e99517513"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors8/global/lossy/s2",
      { Phantom_oracle.digest = "406c0747a498f8f2b46d8a2c7f962bf5"; captured = true; messages_sent = 373 } );
    ( "11x11/w10/sectors8/global/lossy/s3",
      { Phantom_oracle.digest = "e9afc1048fb61b6f2093b96f550d26f1"; captured = true; messages_sent = 373 } );
  ]
